package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, parsed, type-checked module package.
type Package struct {
	Path  string // import path, e.g. taps/internal/core
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
	// Errs holds type-check errors. The package is still analyzed on a
	// best-effort basis, but the driver treats any Errs as a hard failure.
	Errs []error
}

// Loader discovers, parses, and type-checks packages of the enclosing Go
// module without shelling out to the go tool or depending on x/tools:
// module-internal imports are resolved recursively by the Loader itself,
// everything else (the standard library) through go/importer's source
// importer, which type-checks GOROOT/src directly. cgo is disabled so
// packages like net fall back to their pure-Go implementations, which is
// all the type checker needs.
//
// Loading is parallel: module packages are discovered and parsed with a
// breadth-first sweep over their import graphs (the shared token.FileSet
// is safe for concurrent use), then type-checked in dependency order with
// up to GOMAXPROCS packages in flight at once. The stdlib source importer
// is not concurrency-safe, so stdlib imports serialize on a mutex; only
// the first request per stdlib package pays the type-check cost.
//
// Test files (_test.go) are never loaded: the invariants tapslint guards
// are about production planning/simulation code, and tests are where
// wall-clock waits and ad-hoc randomness are legitimate.
type Loader struct {
	ModRoot string // absolute path of the module root (dir of go.mod)
	ModPath string // module path from go.mod

	// Tags is an optional set of extra build tags honored during file
	// selection, mirroring `go build -tags`. Set it before the first Load.
	// The kindexhaustive regression test uses this to compile a record
	// kind that normal runs never see.
	Tags []string

	fset  *token.FileSet
	std   types.ImporterFrom
	stdMu sync.Mutex // go/importer's source importer is not thread-safe

	mu   sync.Mutex
	pkgs map[string]*Package // by import path; completed packages only
}

// NewLoader locates the enclosing module starting from dir ("" = cwd).
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modpath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	// The source importer resolves stdlib packages through go/build; with
	// cgo off, build tags select the pure-Go files everywhere, which is
	// sufficient for type checking and avoids needing a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModRoot: root,
		ModPath: modpath,
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
	}, nil
}

// findModule walks upward from dir to the nearest go.mod.
func findModule(dir string) (root, modpath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.Trim(strings.TrimSpace(rest), `"`), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
	}
}

// buildContext returns the file-selection context: the default context with
// cgo off and the Loader's extra tags applied.
func (l *Loader) buildContext() build.Context {
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.BuildTags = append([]string(nil), l.Tags...)
	return ctx
}

// Load expands the given package patterns (Go-style: a directory like
// ./internal/core, or a tree like ./... and ./internal/...) and returns the
// matched packages, parsed and type-checked, sorted by import path.
//
// Tree expansion skips testdata, vendor, hidden, and underscore-prefixed
// directories, mirroring the go tool — the lint fixtures under testdata/
// contain deliberate violations and are only loaded when named explicitly.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	roots := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		roots = append(roots, path)
	}
	parsed, err := l.parseAll(roots)
	if err != nil {
		return nil, err
	}
	if err := l.checkAll(parsed); err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(roots))
	seen := make(map[string]bool)
	l.mu.Lock()
	for _, path := range roots {
		if pkg := l.pkgs[path]; pkg != nil && !seen[path] {
			seen[path] = true
			pkgs = append(pkgs, pkg)
		}
	}
	l.mu.Unlock()
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			recursive = true
			pat = strings.TrimSuffix(rest, "/")
			if pat == "" {
				pat = "."
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(abs+string(filepath.Separator), l.ModRoot+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: pattern %q lies outside module root %s", pat, l.ModRoot)
		}
		if !recursive {
			if hasGoFiles(abs) {
				add(abs)
				continue
			}
			return nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor converts an absolute directory under the module root to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// dirFor is importPathFor's inverse.
func (l *Loader) dirFor(path string) string {
	sub := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(sub))
}

// parsedPkg is one package after the parse phase, before type-checking.
type parsedPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string // module-internal imports only
	err     error
}

// parseAll runs the breadth-first discovery sweep: parse every root, then
// every module-internal import not yet loaded, wave by wave, each wave
// fanned out across GOMAXPROCS goroutines. The shared FileSet synchronizes
// internally; everything else is confined to the wave coordinator.
func (l *Loader) parseAll(roots []string) (map[string]*parsedPkg, error) {
	parsed := make(map[string]*parsedPkg)
	queued := make(map[string]bool)
	var wave []string
	enqueue := func(path string) {
		l.mu.Lock()
		cached := l.pkgs[path] != nil
		l.mu.Unlock()
		if !cached && !queued[path] {
			queued[path] = true
			wave = append(wave, path)
		}
	}
	for _, path := range roots {
		enqueue(path)
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for len(wave) > 0 {
		batch := make([]*parsedPkg, len(wave))
		var wg sync.WaitGroup
		for i, path := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, path string) {
				defer func() { <-sem; wg.Done() }()
				batch[i] = l.parseOne(path)
			}(i, path)
		}
		wg.Wait()
		wave = wave[:0]
		for _, pp := range batch {
			parsed[pp.path] = pp
			for _, imp := range pp.imports {
				enqueue(imp)
			}
		}
	}
	// Parse failures abort the whole load, deterministically: report the
	// lexically first broken package.
	var bad []string
	for path, pp := range parsed {
		if pp.err != nil {
			bad = append(bad, path)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, parsed[bad[0]].err
	}
	return parsed, nil
}

// parseOne parses one package directory, honoring build tags, and records
// its module-internal imports for the discovery sweep.
func (l *Loader) parseOne(path string) *parsedPkg {
	pp := &parsedPkg{path: path, dir: l.dirFor(path)}
	entries, err := os.ReadDir(pp.dir)
	if err != nil {
		pp.err = err
		return pp
	}
	ctx := l.buildContext()
	imports := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := ctx.MatchFile(pp.dir, name); err != nil || !ok {
			continue // excluded by build tags or GOOS/GOARCH suffix
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(pp.dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pp.err = err
			return pp
		}
		pp.files = append(pp.files, f)
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if imp == l.ModPath || strings.HasPrefix(imp, l.ModPath+"/") {
				imports[imp] = true
			}
		}
	}
	if len(pp.files) == 0 {
		pp.err = fmt.Errorf("lint: no Go files in %s", pp.dir)
		return pp
	}
	for imp := range imports {
		pp.imports = append(pp.imports, imp)
	}
	sort.Strings(pp.imports)
	return pp
}

// checkAll type-checks the parsed packages in dependency order, running up
// to GOMAXPROCS independent packages concurrently. A package only starts
// once all its module-internal dependencies are complete, so ImportFrom
// lookups during Check always hit finished packages. If the scheduler
// stalls with packages remaining, their imports form a cycle.
func (l *Loader) checkAll(parsed map[string]*parsedPkg) error {
	indeg := make(map[string]int, len(parsed))
	rdeps := make(map[string][]string)
	var ready []string
	for path, pp := range parsed {
		for _, imp := range pp.imports {
			if _, inBatch := parsed[imp]; inBatch {
				indeg[path]++
				rdeps[imp] = append(rdeps[imp], path)
			}
		}
		if indeg[path] == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)

	workers := runtime.GOMAXPROCS(0)
	if workers > len(parsed) {
		workers = len(parsed)
	}
	readyCh := make(chan string, len(parsed))
	doneCh := make(chan string, len(parsed))
	for i := 0; i < workers; i++ {
		go func() {
			for path := range readyCh {
				l.checkOne(parsed[path])
				doneCh <- path
			}
		}()
	}
	scheduled := 0
	for _, path := range ready {
		readyCh <- path
		scheduled++
	}
	for completed := 0; completed < scheduled; completed++ {
		path := <-doneCh
		deps := rdeps[path]
		sort.Strings(deps)
		for _, r := range deps {
			if indeg[r]--; indeg[r] == 0 {
				readyCh <- r
				scheduled++
			}
		}
	}
	close(readyCh)
	if scheduled < len(parsed) {
		var stuck []string
		for path := range parsed {
			if indeg[path] > 0 {
				stuck = append(stuck, path)
			}
		}
		sort.Strings(stuck)
		return fmt.Errorf("lint: import cycle through %s", stuck[0])
	}
	return nil
}

// checkOne type-checks one parsed package and publishes it to the cache.
func (l *Loader) checkOne(pp *parsedPkg) {
	pkg := &Package{Path: pp.path, Dir: pp.dir, Fset: l.fset}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		// Collect every error and keep checking: the driver reports them
		// all at once instead of stopping at the first broken package.
		Error: func(err error) { pkg.Errs = append(pkg.Errs, err) },
	}
	tpkg, _ := conf.Check(pp.path, l.fset, pp.files, info) // errors already in pkg.Errs
	pkg.Files, pkg.Types, pkg.Info = pp.files, tpkg, info
	l.mu.Lock()
	l.pkgs[pp.path] = pkg
	l.mu.Unlock()
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths resolve
// against the completed-package cache (the dependency-ordered scheduler
// guarantees dependencies finish first), everything else goes through the
// stdlib source importer under a mutex.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		l.mu.Lock()
		pkg := l.pkgs[path]
		l.mu.Unlock()
		if pkg == nil {
			return nil, fmt.Errorf("lint: %s not loaded (import cycle?)", path)
		}
		if len(pkg.Errs) > 0 {
			return pkg.Types, fmt.Errorf("lint: %s has type errors: %v", path, pkg.Errs[0])
		}
		return pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.ImportFrom(path, dir, mode)
}
