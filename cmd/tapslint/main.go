// Command tapslint runs the repository's determinism, concurrency, and
// hot-path lint pass (internal/lint) over module packages.
//
//	tapslint [-list] [-json] [-v] [packages...]
//
// Packages are directory patterns relative to the working directory
// (./internal/core, ./..., ./internal/...); the default is ./... from the
// module root, which — like the go tool — skips testdata directories, so
// the deliberate-violation fixtures under internal/lint/testdata only load
// when named explicitly.
//
// There is one way to waive a finding: a reasoned //taps:allow directive
// on its line. Everything else fails the run.
//
// Diagnostics are printed for every package before exiting (no fail-fast):
// one clean run shows everything there is to fix. Exit status: 0 when
// there are no findings, 1 when any finding was reported, 2 when packages
// failed to load or type-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"taps/internal/lint"
)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Timings  []jsonTiming  `json:"timings,omitempty"`
}

type jsonTiming struct {
	Analyzer string  `json:"analyzer"`
	WallMS   float64 `json:"wall_ms"`
}

func main() {
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	verbose := flag.Bool("v", false, "print per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tapslint [-list] [-json] [-v] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapslint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapslint:", err)
		os.Exit(2)
	}

	loadFailed := false
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			loadFailed = true
			fmt.Fprintf(os.Stderr, "tapslint: %s: %v\n", pkg.Path, e)
		}
	}

	diags, timings := lint.RunWithTimings(pkgs, analyzers)
	if *verbose {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "tapslint: %-14s %8.1fms\n", t.Name,
				float64(t.Wall.Microseconds())/1000)
		}
	}

	// relName maps a diagnostic's absolute filename to the module-root-
	// relative slash form it is displayed in.
	relName := func(abs string) string {
		if rel, err := filepath.Rel(loader.ModRoot, abs); err == nil && !filepath.IsAbs(rel) {
			return filepath.ToSlash(rel)
		}
		return filepath.ToSlash(abs)
	}

	findings := []jsonFinding{}
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File: relName(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
			Check: d.Check, Message: d.Message,
		})
	}

	if *asJSON {
		rep := jsonReport{Findings: findings}
		for _, t := range timings {
			rep.Timings = append(rep.Timings, jsonTiming{
				Analyzer: t.Name, WallMS: float64(t.Wall.Microseconds()) / 1000})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "tapslint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Check, f.Message)
		}
	}

	switch {
	case loadFailed:
		os.Exit(2)
	case len(findings) > 0:
		os.Exit(1)
	}
}
