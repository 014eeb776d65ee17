package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc turns the planner's pinned-allocations benchmarks into
// file/line diagnostics. Functions annotated //taps:hotpath (the planner's
// candidate evaluation and occupancy calendar, simtime's FirstFit sweep)
// promise not to allocate per call; the benchmarks catch a
// regression as a number, this analyzer points at the line. Flagged
// constructs: make/new, map and slice literals, &composite (heap escape),
// closures that capture variables, fmt calls, interface boxing at call
// arguments, and append to a slice that is not arena-rooted (not reachable
// from a receiver, parameter, or package-level arena — growing such a
// slice allocates a fresh backing array every call).
//
// Deliberate one-time allocations inside hot functions (grow-once scratch,
// lazy init) carry //taps:allow hotpathalloc with a rationale.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//taps:hotpath functions must not allocate: no make/new/map/slice literals, capturing closures, fmt, boxing, or non-arena append",
	Run:  runHotPathAlloc,
}

// hotpathDirective marks a function as allocation-free. It lives in the
// function's doc comment or on the line directly above the declaration.
const hotpathDirective = "taps:hotpath"

func runHotPathAlloc(p *Pass) {
	for _, f := range p.Files {
		directiveLines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//"+hotpathDirective) {
					directiveLines[p.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(directiveLines) == 0 {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if p.isHotPath(fd, directiveLines) {
				p.checkHotFunc(fd)
			}
		}
	}
}

// isHotPath reports whether fd carries the //taps:hotpath directive — any
// line of its doc comment, or the line directly above the func keyword.
func (p *Pass) isHotPath(fd *ast.FuncDecl, directiveLines map[int]bool) bool {
	funcLine := p.Fset.Position(fd.Pos()).Line
	start := funcLine - 1
	if fd.Doc != nil {
		start = p.Fset.Position(fd.Doc.Pos()).Line
	}
	for l := start; l <= funcLine; l++ {
		if directiveLines[l] {
			return true
		}
	}
	return false
}

func (p *Pass) checkHotFunc(fd *ast.FuncDecl) {
	arena := p.arenaObjs(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			p.checkHotCall(fd, n, arena)
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocates in hot-path %s", fd.Name.Name)
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocates in hot-path %s", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					p.Reportf(n.Pos(), "&composite literal escapes to the heap in hot-path %s", fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			if captured := p.closureCaptures(fd, n); captured != "" {
				p.Reportf(n.Pos(),
					"closure captures %s and allocates in hot-path %s; capture-free funcs compile to statics",
					captured, fd.Name.Name)
			}
		}
		return true
	})
}

// checkHotCall flags allocating calls: make/new, fmt.*, non-arena append,
// and interface boxing at call arguments.
func (p *Pass) checkHotCall(fd *ast.FuncDecl, call *ast.CallExpr, arena map[types.Object]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "make":
				p.Reportf(call.Pos(), "make allocates in hot-path %s; hoist into a reused arena", fd.Name.Name)
				return
			case "new":
				p.Reportf(call.Pos(), "new allocates in hot-path %s; hoist into a reused arena", fd.Name.Name)
				return
			case "append":
				if len(call.Args) > 0 && !p.arenaRooted(call.Args[0], arena) {
					p.Reportf(call.Pos(),
						"append to non-arena slice in hot-path %s; growth allocates a fresh backing array every call",
						fd.Name.Name)
				}
				return
			default:
				return // len, cap, copy, clear, ... never allocate
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pn := p.pkgNameOf(sel.X); pn != nil && pn.Imported().Path() == "fmt" {
			p.Reportf(call.Pos(), "fmt.%s allocates (boxes arguments) in hot-path %s", sel.Sel.Name, fd.Name.Name)
			return
		}
	}
	p.checkBoxing(fd, call)
}

// checkBoxing flags concrete values passed to interface-typed parameters —
// the conversion heap-allocates unless the value is pointer-shaped and
// escapes anyway, and either way it does not belong on the hot path.
func (p *Pass) checkBoxing(fd *ast.FuncDecl, call *ast.CallExpr) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return // conversion or type expr
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, isSlice := params.At(params.Len() - 1).Type().(*types.Slice)
			if !isSlice {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := p.Info.Types[arg]
		if !ok {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue // interface-to-interface: no new box
		}
		if at.IsNil() {
			continue
		}
		p.Reportf(arg.Pos(),
			"concrete value boxed into interface parameter in hot-path %s call", fd.Name.Name)
	}
}

// arenaObjs computes the function's arena-rooted objects: the receiver,
// parameters, and (transitively) locals initialized from expressions
// rooted in one of those — `buf := e.scratch[:0]` makes buf arena-backed.
// Package-level variables are arenas by definition (they persist).
func (p *Pass) arenaObjs(fd *ast.FuncDecl) map[types.Object]bool {
	arena := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					arena[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	if fd.Type.Params != nil {
		addFields(fd.Type.Params)
	}
	// Propagate through local copies until stable.
	type pair struct{ lhs, rhs ast.Expr }
	var pairs []pair
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				pairs = append(pairs, pair{as.Lhs[i], as.Rhs[i]})
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, pr := range pairs {
			id, ok := pr.lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.objectOf(id)
			if obj == nil || arena[obj] {
				continue
			}
			if p.arenaRooted(pr.rhs, arena) {
				arena[obj] = true
				changed = true
			}
		}
	}
	return arena
}

// arenaRooted reports whether the expression's leftmost base resolves to
// an arena object, a struct field reached through one, or a package-level
// variable.
func (p *Pass) arenaRooted(e ast.Expr, arena map[types.Object]bool) bool {
	obj := p.rootObj(e)
	if obj == nil {
		return false
	}
	if arena[obj] {
		return true
	}
	if v, ok := obj.(*types.Var); ok {
		if v.IsField() {
			return true
		}
		// Package-level variable: Parent is the package scope.
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return true
		}
	}
	return false
}

// closureCaptures returns a captured variable's name if the literal closes
// over any variable declared in the enclosing function (excluding
// package-level names and the closure's own declarations), or "".
func (p *Pass) closureCaptures(fd *ast.FuncDecl, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture needed
		}
		// Declared inside the closure itself (params and locals) is fine;
		// declared in the enclosing function body means a capture.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}
