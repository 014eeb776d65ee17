// Package lint is tapslint's analyzer framework: a small, stdlib-only
// (go/ast + go/parser + go/types + go/importer) static-analysis layer that
// machine-checks the determinism and simulated-time invariants the TAPS
// reproduction depends on. Plans, traces and decision logs are
// bit-identical across runs and across GOMAXPROCS only as long as nobody
// reintroduces wall-clock reads, unseeded global randomness,
// order-dependent map iteration, inconsistent lock order, or unhandled
// record kinds. The analyzers registered here (see All) turn those
// conventions into CI failures.
//
// Individual findings are silenced with a directive comment on the
// offending line (or the line directly above it):
//
//	//taps:allow <check>[,<check>...] [rationale]
//
// The rationale is free text and strongly encouraged: every directive in
// the tree documents why a site is exempt from the invariant, not just
// that it is.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding: a position, the check that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Analyzer is one registered check.
type Analyzer struct {
	// Name is the check's identifier, used in output and in //taps:allow
	// directives.
	Name string
	// Doc is a one-line description (shown by tapslint -list).
	Doc string
	// AppliesTo reports whether the analyzer runs on the package with the
	// given import path. A nil AppliesTo runs everywhere.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// Reset, if non-nil, is called once at the start of every lint.Run
	// sweep, before any package is analyzed. Analyzers that accumulate
	// module-wide state across packages (lockorder's acquisition-order
	// graph) use it to start each sweep from a clean slate, so repeated
	// Run calls in one process (the test harness) stay independent.
	Reset func()
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	allow directiveIndex
	diags *[]Diagnostic

	// callFuns records selector expressions seen as call targets during a
	// lockorder walk (parents visit before children, so a CallExpr's Fun is
	// registered before the SelectorExpr itself is reached).
	callFuns map[*ast.SelectorExpr]bool
}

// Reportf records a finding at pos unless a //taps:allow directive for
// this check covers the position's line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allows(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// directivePrefix introduces a suppression comment. The space-less form
// matches the convention of //go: and //lint: directives, which gofmt
// leaves untouched.
const directivePrefix = "taps:allow"

// directiveIndex maps file -> line -> checks allowed on that line.
type directiveIndex map[string]map[int][]string

func (ix directiveIndex) allows(pos token.Position, check string) bool {
	lines := ix[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		if slices.Contains(lines[l], check) {
			return true
		}
	}
	return false
}

// collectDirectives scans a package's comments for //taps:allow lines.
func collectDirectives(pkg *Package) directiveIndex {
	ix := make(directiveIndex)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := ix[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					ix[pos.Filename] = lines
				}
				for _, check := range strings.Split(fields[0], ",") {
					if check = strings.TrimSpace(check); check != "" {
						lines[pos.Line] = append(lines[pos.Line], check)
					}
				}
			}
		}
	}
	return ix
}

// Run applies every analyzer to every package it opts into and returns all
// surviving diagnostics sorted by position — the full cross-package sweep,
// never stopping at the first finding, so one tapslint run shows
// everything there is to fix.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	for _, a := range analyzers {
		if a.Reset != nil {
			a.Reset()
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow := collectDirectives(pkg)
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				allow:    allow,
				diags:    &diags,
			})
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Column, b.Pos.Column); c != 0 {
			return c
		}
		return cmp.Compare(a.Check, b.Check)
	})
	return diags
}

// All returns the registered analyzer set, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, GlobalRand, MapOrder, LockOrder, KindExhaustive}
}

// testdataPrefix marks the lint fixtures: scoped analyzers always opt into
// them so the expectation tests can exercise package-path-scoped checks.
const testdataPrefix = "taps/internal/lint/testdata/"

// scoped builds an AppliesTo that matches the given package paths and
// everything below them, plus the lint testdata fixtures.
func scoped(roots ...string) func(string) bool {
	return func(pkgPath string) bool {
		if strings.HasPrefix(pkgPath, testdataPrefix) {
			return true
		}
		for _, r := range roots {
			if pkgPath == r || strings.HasPrefix(pkgPath, r+"/") {
				return true
			}
		}
		return false
	}
}

// pkgNameOf resolves an identifier to the import it names, or nil.
func (p *Pass) pkgNameOf(e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := p.Info.Uses[id].(*types.PkgName)
	return pn
}

// isPkgFunc reports whether call invokes the package-level function
// pkgpath.name (not a method, not a local shadow).
func (p *Pass) isPkgFunc(call *ast.CallExpr, pkgpath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	pn := p.pkgNameOf(sel.X)
	return pn != nil && pn.Imported().Path() == pkgpath
}
