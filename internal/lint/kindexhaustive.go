package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// KindExhaustive makes the closed enum sets of the decision pipeline
// impossible to extend silently. The flight recorder's record kinds
// (declog.Kind), span outcomes, replan kinds, and the
// scheduler's ordering/decision enums each have a replayer, encoder, or
// policy switch that must handle every constant: adding record kind 13
// with an encoder case but no replayer case corrupts time-travel debugging
// without failing a single test, because old logs still replay fine.
//
// Every switch whose tag is one of the registered closed enums
// (kindexRegistry) must either list every exported constant of the type or
// carry a default clause annotated //taps:allow kindexhaustive with a
// rationale (a corrupt-input guard in a decoder is legitimate; a lazy
// catch-all in a replayer is not).
var KindExhaustive = &Analyzer{
	Name: "kindexhaustive",
	Doc:  "switches over closed enums (declog.Kind, span outcomes, replan kinds) must cover every constant or annotate their default",
	Run:  runKindExhaustive,
}

// kindexRegistry names the module's closed enum types, keyed
// pkgpath.TypeName: the one way to mark an enum closed.
var kindexRegistry = map[string]bool{
	"taps/internal/obs/declog.Kind":     true,
	"taps/internal/obs/span.Outcome":    true,
	"taps/internal/obs/span.ReplanKind": true,
	"taps/internal/core.Ordering":       true,
	"taps/internal/core.Decision":       true,
	"taps/internal/netctl.Stage":        true,
}

func runKindExhaustive(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named := p.namedTypeOf(sw.Tag)
			if named == nil {
				return true
			}
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if !kindexRegistry[key] {
				return true
			}
			p.checkEnumSwitch(sw, named, key)
			return true
		})
	}
}

// namedTypeOf resolves an expression's type to its Named form, or nil.
func (p *Pass) namedTypeOf(e ast.Expr) *types.Named {
	tv, ok := p.Info.Types[e]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

// checkEnumSwitch verifies one switch over a closed enum: either every
// exported constant of the type appears in a case, or the default clause
// carries a //taps:allow kindexhaustive rationale (Reportf consults the
// directive index, so an annotated default never reaches the output).
func (p *Pass) checkEnumSwitch(sw *ast.SwitchStmt, named *types.Named, key string) {
	covered := make(map[types.Object]bool)
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			switch e := e.(type) {
			case *ast.Ident:
				if obj := p.Info.Uses[e]; obj != nil {
					covered[obj] = true
				}
			case *ast.SelectorExpr:
				if obj := p.Info.Uses[e.Sel]; obj != nil {
					covered[obj] = true
				}
			}
		}
	}
	if defaultClause != nil {
		// A default hides any constant added later; it needs an explicit,
		// annotated reason to exist on a closed enum.
		p.Reportf(defaultClause.Pos(),
			"switch over closed enum %s has a default clause; new constants will be silently swallowed — handle each constant or annotate with //taps:allow kindexhaustive <why>",
			key)
		return
	}
	var missing []string
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() || !types.Identical(c.Type(), named) {
			continue
		}
		if !covered[c] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	p.Reportf(sw.Pos(),
		"switch over closed enum %s does not handle %s; cover every constant or add an annotated default",
		key, strings.Join(missing, ", "))
}
