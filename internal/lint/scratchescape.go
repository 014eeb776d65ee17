package lint

import (
	"go/ast"
	"go/types"
)

// ScratchEscape guards the aliasing contract of the planner's scratch
// arenas. simtime.FirstFit writes the slices it takes into a caller-owned
// destination set whose backing array is reused on the next call (the
// "Into" convention); any such set that escapes the arena
// — stored into an unrelated struct field or map, returned, or packed into
// a composite literal — without an explicit .Clone() will be silently
// rewritten by the next planning pass, corrupting an already-committed
// plan. This is exactly the bug class the planner's zero-alloc arena made
// possible, and exactly why planOne clones the winner's slices before
// publishing them.
//
// The analysis is per package: every struct field ever used as an *Into
// destination (and every field or local a scratch value is copied into,
// transitively — the double-buffer swap) is treated as scratch-backed;
// moves between fields of the same owner (the swap itself) are legal,
// everything that leaves the owner must go through Clone().
var ScratchEscape = &Analyzer{
	Name: "scratchescape",
	Doc:  "simtime *Into destinations must not escape into fields/returns without .Clone()",
	Run:  runScratchEscape,
}

// simtimePkg is where the Into primitives live.
const simtimePkg = "taps/internal/simtime"

// intoDstIndex maps each Into operation to the position of its destination
// argument.
var intoDstIndex = map[string]int{
	"FirstFit": 0,
}

func runScratchEscape(p *Pass) {
	marked := make(map[types.Object]bool)

	// Pass 1a: seed — destinations of Into calls that are struct fields.
	// A plain `&local` destination is a fresh set owned by the enclosing
	// function and safe to hand out; only storage that outlives the call —
	// an arena field — makes reuse dangerous.
	type assignPair struct{ lhs, rhs ast.Expr }
	var pairs []assignPair
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if dst := p.intoDst(n); dst != nil {
					if un, ok := dst.(*ast.UnaryExpr); ok {
						if sel, ok := un.X.(*ast.SelectorExpr); ok {
							if obj := p.Info.Uses[sel.Sel]; obj != nil {
								marked[obj] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						pairs = append(pairs, assignPair{n.Lhs[i], n.Rhs[i]})
					}
				}
			}
			return true
		})
	}

	// Pass 1b: propagate through plain copies (the arena double-buffer
	// swap marks its partner field; a local alias of a scratch field is
	// itself scratch-backed) until the marking stabilizes.
	for changed := true; changed; {
		changed = false
		for _, pr := range pairs {
			if p.markedObjOf(pr.rhs, marked) == nil {
				continue
			}
			var obj types.Object
			switch lhs := pr.lhs.(type) {
			case *ast.SelectorExpr:
				obj = p.Info.Uses[lhs.Sel]
			case *ast.Ident:
				obj = p.objectOf(lhs)
			}
			if obj != nil && !marked[obj] {
				marked[obj] = true
				changed = true
			}
		}
	}
	if len(marked) == 0 {
		return
	}

	// Pass 2: report escapes of scratch-backed values.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i := range n.Lhs {
					rhs := p.markedObjOf(n.Rhs[i], marked)
					if rhs == nil {
						continue
					}
					lhs := n.Lhs[i]
					_, isSel := lhs.(*ast.SelectorExpr)
					_, isIndex := lhs.(*ast.IndexExpr)
					if !isSel && !isIndex {
						continue // copy into a local: tracked by propagation
					}
					if p.rootObj(lhs) == p.rootObj(n.Rhs[i]) {
						continue // intra-arena move (double-buffer swap)
					}
					p.Reportf(n.Pos(),
						"scratch-backed %s (simtime *Into destination) stored outside its arena without .Clone(); the next planning pass will rewrite it in place",
						rhs.Name())
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if obj := p.markedObjOf(res, marked); obj != nil {
						p.Reportf(n.Pos(),
							"scratch-backed %s (simtime *Into destination) returned without .Clone(); the next planning pass will rewrite it in place",
							obj.Name())
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if obj := p.markedObjOf(v, marked); obj != nil {
						p.Reportf(el.Pos(),
							"scratch-backed %s (simtime *Into destination) packed into a composite literal without .Clone(); the next planning pass will rewrite it in place",
							obj.Name())
					}
				}
			}
			return true
		})
	}
}

// intoDst returns the destination argument of a simtime Into call, or nil.
func (p *Pass) intoDst(call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	idx, ok := intoDstIndex[sel.Sel.Name]
	if !ok || idx >= len(call.Args) {
		return nil
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != simtimePkg {
		return nil
	}
	return call.Args[idx]
}

// markedObjOf returns the scratch-backed object an expression denotes, or
// nil when the expression is not a bare marked identifier/field (a call
// such as x.Clone() is by construction not bare).
func (p *Pass) markedObjOf(e ast.Expr, marked map[types.Object]bool) types.Object {
	for {
		if pe, ok := e.(*ast.ParenExpr); ok {
			e = pe.X
			continue
		}
		break
	}
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = p.objectOf(e)
	case *ast.SelectorExpr:
		obj = p.Info.Uses[e.Sel]
	}
	if obj != nil && marked[obj] {
		return obj
	}
	return nil
}
