package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked module package.
type Package struct {
	Path  string // import path, e.g. taps/internal/core
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages of the enclosing Go module through the go tool:
// `go list -deps -export` expands the patterns, selects files by build
// tags, orders packages dependencies-first and compiles export data for
// everything. Main-module packages are then parsed and type-checked from
// source, so analyzers see their syntax and a types.Object per declaration
// that is shared by every package of the load; everything else (the
// standard library) is imported from the compiler's export data.
//
// Test files (_test.go) are never loaded: the invariants tapslint guards
// are about production planning/simulation code, and tests are where
// wall-clock waits and ad-hoc randomness are legitimate.
type Loader struct {
	ModRoot string // absolute path of the module root (dir of go.mod)

	// Tags is an optional set of extra build tags, passed to go list as
	// -tags. The kindexhaustive regression test uses this to compile a
	// record kind that normal runs never see.
	Tags []string

	dir string // where go list runs; patterns are relative to it
}

// NewLoader returns a loader for the module enclosing dir ("" = cwd).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	out, err := goCmd(abs, "env", "GOMOD")
	if err != nil {
		return nil, err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
	}
	return &Loader{ModRoot: filepath.Dir(gomod), dir: abs}, nil
}

// listPkg is the part of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// Load expands the given package patterns (anything go list accepts:
// ./internal/core, ./..., ../obs/declog) and returns the matched packages,
// parsed and type-checked, sorted by import path. As with the go tool,
// ./... skips testdata, so the lint fixtures only load when named.
//
// A pattern that matches nothing, a package that does not compile, and a
// type error are all load errors; the error carries the go tool's
// file:line message.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	args := []string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module,Error"}
	if len(l.Tags) > 0 {
		args = append(args, "-tags", strings.Join(l.Tags, ","))
	}
	out, err := goCmd(l.dir, append(append(args, "--"), patterns...)...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)         // import path -> export data file
	checked := make(map[string]*types.Package) // main-module packages so far
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return gc.Import(path)
	})}

	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listPkg
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s", lp.Error.Err)
		}
		if lp.Module == nil || !lp.Module.Main {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		pkg := &Package{Path: lp.ImportPath, Fset: fset, Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		if pkg.Types, err = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goCmd runs the go tool in dir with the caller's environment and returns
// its stdout; a failure carries the tool's stderr.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", args[0], err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}
