package lint

import (
	"go/token"
	"os"
	"regexp"
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
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Fatalf("fixture %s does not type-check: %v", fixture, e)
		}
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
func TestScratchEscapeFixture(t *testing.T)  { runFixture(t, ScratchEscape, "scratchescape") }
func TestLockOrderFixture(t *testing.T)      { runFixture(t, LockOrder, "lockorder") }
func TestKindExhaustiveFixture(t *testing.T) { runFixture(t, KindExhaustive, "kindexhaustive") }
func TestHotPathAllocFixture(t *testing.T)   { runFixture(t, HotPathAlloc, "hotpathalloc") }

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
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Fatalf("declog with regression kind does not type-check: %v", e)
		}
	}
	hits := 0
	for _, d := range Run(pkgs, []*Analyzer{KindExhaustive}) {
		if strings.Contains(d.Message, "KindRegress") {
			hits++
		}
	}
	// Both the encoder's switch and the replayer's Apply switch must trip.
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
	want := "wallclock globalrand maporder scratchescape lockorder kindexhaustive hotpathalloc"
	if got != want {
		t.Errorf("All() = %q, want %q", got, want)
	}
}

func fakePos(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}
