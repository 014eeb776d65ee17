package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map in deterministic planner / scheduler /
// engine / result code when the loop body is sensitive to iteration order:
// Go randomizes map order per run, so such a loop makes two identical
// simulations diverge. A site is order-sensitive when the body
//
//   - appends to a slice declared outside the loop (element order = map
//     order) — exempt when a later statement in the same block sorts that
//     slice, the collect-then-sort idiom;
//   - emits decision records (declog.Sink.Emit) or writes formatted
//     output (fmt print family), which serializes in map order;
//   - unconditionally assigns a range variable to an outer variable (the
//     "pick an element" idiom — a map-order-dependent tie-break unless the
//     map is known to hold exactly one key); or
//   - returns a value derived from a range variable (which key wins is
//     map-order-dependent).
//
// Order-independent bodies — per-key mutation, commutative accumulation
// (m[k] += v, max-reduction under a guard) — are not flagged. Sites that
// are provably safe for a non-structural reason carry //taps:allow
// maporder with the reason.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "no order-dependent map iteration in deterministic code; sort first, or //taps:allow maporder",
	AppliesTo: scoped(
		"taps/internal/core",
		"taps/internal/sched",
		"taps/internal/sim",
		"taps/internal/simtime",
		"taps/internal/experiments",
		"taps/internal/workload",
		"taps/internal/metrics",
		"taps/internal/obs/declog",
	),
	Run: runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok || !p.isMapRange(rs) {
					continue
				}
				p.checkMapRange(rs, list[i+1:])
			}
			return true
		})
	}
}

func (p *Pass) isMapRange(rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange classifies one map-range; rest is the statement tail of the
// enclosing block, scanned for the sort-after exemption.
func (p *Pass) checkMapRange(rs *ast.RangeStmt, rest []ast.Stmt) {
	rangeVars := p.rangeVarObjs(rs)

	// Trigger: unconditional top-level `outer = <range var>` assignment.
	// Only plain variables count — an indexed store keyed by the range
	// variable (m[k] = v) is per-key and order-independent, and appends are
	// classified below, where the collect-then-sort idiom is exempted.
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			continue
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.objectOf(id)
			if obj == nil || rangeVars[obj] || !declaredOutside(obj, rs.Body) {
				continue
			}
			rhs := as.Rhs[min(i, len(as.Rhs)-1)]
			if call, ok := rhs.(*ast.CallExpr); ok && p.isBuiltinAppend(call) {
				continue
			}
			if p.referencesAny(rhs, rangeVars) {
				p.Reportf(rs.Pos(),
					"map iteration order feeds %s: which key wins depends on Go's per-run map order; sort the keys first (or //taps:allow maporder with why it cannot matter)",
					types.ObjectString(obj, types.RelativeTo(p.Pkg)))
				return
			}
		}
	}

	var diag string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if diag != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Trigger: append into a slice declared outside the loop.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isBuiltinAppend(call) || i >= len(n.Lhs) {
					continue
				}
				obj := p.rootObj(n.Lhs[i])
				if obj == nil || !declaredOutside(obj, rs.Body) {
					continue
				}
				if p.sortedAfter(obj, rest) {
					continue
				}
				diag = "appends to " + obj.Name() + " in map order; sort " + obj.Name() +
					" after the loop, or iterate sorted keys"
			}
		case *ast.ReturnStmt:
			// Trigger: returning a value derived from a range variable.
			for _, res := range n.Results {
				if p.referencesAny(res, rangeVars) {
					diag = "returns a value derived from the range variable: which key returns first depends on map order"
					break
				}
			}
		case *ast.CallExpr:
			// Trigger: event emission / formatted output inside the loop.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == sinkEmit {
					diag = "emits decision records (declog.Sink.Emit) in map order"
				} else if pn := p.pkgNameOf(sel.X); pn != nil && pn.Imported().Path() == "fmt" &&
					strings.HasPrefix(strings.TrimPrefix(sel.Sel.Name, "F"), "Print") {
					diag = "writes output (fmt." + sel.Sel.Name + ") in map order"
				}
			}
		}
		return diag == ""
	})
	if diag != "" {
		p.Reportf(rs.Pos(), "order-dependent iteration over map: %s", diag)
	}
}

// sinkEmit is the one emitter of decision records: its records land in the
// decision log and the decision counters in call order.
const sinkEmit = "(*taps/internal/obs/declog.Sink).Emit"

// rangeVarObjs collects the objects of the range's key/value variables.
func (p *Pass) rangeVarObjs(rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.objectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// declaredOutside reports whether obj's declaration lies outside the block.
func declaredOutside(obj types.Object, body *ast.BlockStmt) bool {
	return obj.Pos() < body.Pos() || obj.Pos() >= body.End()
}

// referencesAny reports whether the expression mentions any of the objects.
func (p *Pass) referencesAny(e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[p.objectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

func (p *Pass) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortedAfter reports whether a later statement in the enclosing block
// sorts the collected slice — the collect-then-sort idiom that makes
// map-order appends deterministic again.
func (p *Pass) sortedAfter(obj types.Object, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		pn := p.pkgNameOf(sel.X)
		if pn == nil {
			continue
		}
		name := sel.Sel.Name
		isSort := (pn.Imported().Path() == "sort" && name != "Search" && name != "SearchInts" &&
			name != "SearchFloat64s" && name != "SearchStrings") ||
			(pn.Imported().Path() == "slices" && strings.HasPrefix(name, "Sort"))
		if isSort && p.rootObj(call.Args[0]) == obj {
			return true
		}
	}
	return false
}

// rootObj resolves the leftmost identifier of an lvalue-ish expression
// (ident, selector chain, index/slice expression, conversion) to its
// object.
func (p *Pass) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return p.objectOf(x)
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) != 1 {
				return nil
			}
			e = x.Args[0] // conversion like byLen(v)
		default:
			return nil
		}
	}
}
