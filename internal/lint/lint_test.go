package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe matches an expectation comment: // want "regex". The regex is
// matched against the diagnostic message reported on the same line.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	file string
	line int
}

// runFixture loads one testdata package, runs a single analyzer over it,
// and verifies the diagnostics against the // want expectation comments:
// every diagnostic must be expected, every expectation must fire. Lines
// with a //taps:allow directive and no want comment double as suppression
// tests — a diagnostic there fails as unexpected.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./testdata/" + fixture)
	if err != nil {
		t.Fatal(err)
	}

	wants := make(map[wantKey][]string)
	matched := make(map[wantKey][]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if m := wantRe.FindStringSubmatch(line); m != nil {
					k := wantKey{name, i + 1}
					wants[k] = append(wants[k], m[1])
					matched[k] = append(matched[k], false)
				}
			}
		}
	}

	for _, d := range Run(pkgs, []*Analyzer{a}) {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		ok := false
		for i, w := range wants[k] {
			re, err := regexp.Compile(w)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", k.file, k.line, w, err)
			}
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", k.file, k.line, d.Message)
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !matched[k][i] {
				t.Errorf("missing diagnostic at %s:%d matching %q", k.file, k.line, w)
			}
		}
	}
}

func TestWallclockFixture(t *testing.T)      { runFixture(t, Wallclock, "wallclock") }
func TestGlobalRandFixture(t *testing.T)     { runFixture(t, GlobalRand, "globalrand") }
func TestMapOrderFixture(t *testing.T)       { runFixture(t, MapOrder, "maporder") }
func TestLockOrderFixture(t *testing.T)      { runFixture(t, LockOrder, "lockorder") }
func TestKindExhaustiveFixture(t *testing.T) { runFixture(t, KindExhaustive, "kindexhaustive") }

// TestKindExhaustiveCatchesNewKind proves the acceptance criterion: adding
// a declog.Kind constant without replayer handling fails lint. The
// constant lives in internal/obs/declog/kind_regress.go behind the
// taps_regress_newkind build tag, so only this test (and never a real
// build) sees the extended enum.
func TestKindExhaustiveCatchesNewKind(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.Tags = []string{"taps_regress_newkind"}
	pkgs, err := loader.Load("../obs/declog")
	if err != nil {
		t.Fatalf("declog with regression kind does not load: %v", err)
	}
	hits := 0
	for _, d := range Run(pkgs, []*Analyzer{KindExhaustive}) {
		if strings.Contains(d.Message, "KindRegress") {
			hits++
		}
	}
	// Both the encoder's switch and the replayer's fold switch must trip.
	if hits < 2 {
		t.Fatalf("kindexhaustive flagged %d switches for the unhandled KindRegress, want >= 2 (encoder and replayer)", hits)
	}
}

// TestKindExhaustiveCleanWithoutTag is the negative twin: the production
// declog package (no regression tag) carries no kindexhaustive findings —
// its one default clause (the decoder's corrupt-input guard) is annotated.
func TestKindExhaustiveCleanWithoutTag(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("../obs/declog")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(pkgs, []*Analyzer{KindExhaustive}); len(diags) != 0 {
		t.Fatalf("kindexhaustive on production declog: %v", diags)
	}
}

// TestKindRegistryResolves guards the registry against renames: it is the
// only way to mark an enum closed, so a key that no longer names a type
// would silently drop that type's switches out of checking. Every key must
// name a type with at least two exported constants; a misspelled key must
// be caught.
func TestKindRegistryResolves(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var keys, paths []string
	for key := range kindexRegistry {
		keys = append(keys, key)
		paths = append(paths, key[:strings.LastIndex(key, ".")])
	}
	slices.Sort(keys)
	pkgs, err := loader.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if err := resolveEnum(pkgs, key); err != nil {
			t.Error(err)
		}
	}
	if err := resolveEnum(pkgs, "taps/internal/core.Decisoin"); err == nil {
		t.Error("misspelled registry key resolved")
	}
}

// resolveEnum checks that key (pkgpath.TypeName) names a type of one of
// pkgs with at least two exported constants of that type.
func resolveEnum(pkgs []*Package, key string) error {
	i := strings.LastIndex(key, ".")
	path, name := key[:i], key[i+1:]
	j := slices.IndexFunc(pkgs, func(p *Package) bool { return p.Path == path })
	if j < 0 {
		return fmt.Errorf("registry key %s: package %s not loaded", key, path)
	}
	scope := pkgs[j].Types.Scope()
	tn, ok := scope.Lookup(name).(*types.TypeName)
	if !ok {
		return fmt.Errorf("registry key %s: no type %s in %s", key, name, path)
	}
	consts := 0
	for _, n := range scope.Names() {
		if c, ok := scope.Lookup(n).(*types.Const); ok && c.Exported() && types.Identical(c.Type(), tn.Type()) {
			consts++
		}
	}
	if consts < 2 {
		return fmt.Errorf("registry key %s: %d exported constants, want >= 2", key, consts)
	}
	return nil
}

// TestTreeExpansionSkipsTestdata guards the ./... contract: the fixture
// packages (which contain deliberate violations) must only load when named
// explicitly, exactly like the go tool treats testdata directories.
func TestTreeExpansionSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("expected at least the lint package itself")
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("tree expansion loaded fixture package %s", pkg.Path)
		}
	}
}

// TestTreeMatchesGoList pins the loader to the go tool: ./... loads
// exactly the packages `go list ./...` prints, each with exactly its
// non-test GoFiles.
func TestTreeMatchesGoList(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}:{{join .GoFiles \",\"}}", "./...").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(out))
	var got []string
	for _, pkg := range pkgs {
		var names []string
		for _, f := range pkg.Files {
			names = append(names, filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
		}
		got = append(got, pkg.Path+":"+strings.Join(names, ","))
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Load(./...) =\n%s\ngo list ./... =\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestImportsShareTypes guards the identity lockorder's module-wide graph
// relies on: a module package imported by another package of the same
// Load is the very *types.Package that Load checked, not a second copy.
func TestImportsShareTypes(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("../core", "../simtime")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package)
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	core, simtime := byPath["taps/internal/core"], byPath["taps/internal/simtime"]
	if core == nil || simtime == nil {
		t.Fatalf("Load returned %d packages, want core and simtime", len(pkgs))
	}
	i := slices.IndexFunc(core.Types.Imports(), func(p *types.Package) bool { return p.Path() == simtime.Path })
	if i < 0 {
		t.Fatal("core does not import simtime")
	}
	if core.Types.Imports()[i] != simtime.Types {
		t.Error("core's simtime import is not the *types.Package Load returned for simtime")
	}
}

// TestLoadErrors: a pattern that matches nothing and a package that does
// not type-check both fail the load, the latter naming file:line.
func TestLoadErrors(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("./does/not/exist"); err == nil {
		t.Error("Load(./does/not/exist) succeeded")
	}
	_, err = loader.Load("./testdata/broken")
	if err == nil {
		t.Fatal("Load(./testdata/broken) succeeded")
	}
	if !strings.Contains(err.Error(), "broken.go:6:") {
		t.Errorf("Load(./testdata/broken) error does not name broken.go:6: %v", err)
	}
}

// TestDirectiveGrammar exercises the comma-separated multi-check form and
// rationale text without going through a fixture package.
func TestDirectiveGrammar(t *testing.T) {
	ix := directiveIndex{
		"f.go": {7: {"wallclock", "maporder"}},
	}
	for _, tc := range []struct {
		line  int
		check string
		want  bool
	}{
		{7, "wallclock", true}, // same line
		{7, "maporder", true},  // second check of the comma list
		{8, "wallclock", true}, // directive on the preceding line
		{7, "globalrand", false},
		{9, "wallclock", false}, // two lines below: out of reach
	} {
		pos := fakePos("f.go", tc.line)
		if got := ix.allows(pos, tc.check); got != tc.want {
			t.Errorf("allows(line %d, %s) = %v, want %v", tc.line, tc.check, got, tc.want)
		}
	}
}

// TestAnalyzerSetStable pins the registered analyzer names: CI logs print
// this set via tapslint -list, and the DESIGN.md §8 table documents it.
func TestAnalyzerSetStable(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
	}
	got := strings.Join(names, " ")
	want := "wallclock globalrand maporder lockorder kindexhaustive"
	if got != want {
		t.Errorf("All() = %q, want %q", got, want)
	}
}

func fakePos(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}
