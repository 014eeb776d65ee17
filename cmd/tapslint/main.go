// Command tapslint runs the repository's determinism, concurrency, and
// hot-path lint pass (internal/lint) over module packages.
//
//	tapslint [-list] [-json] [packages...]
//
// Packages are go list patterns relative to the working directory
// (./internal/core, ./..., ./internal/...); the default is ./..., which
// skips testdata directories, so the deliberate-violation fixtures under
// internal/lint/testdata only load when named explicitly.
//
// There is one way to waive a finding: a reasoned //taps:allow directive
// on its line. Everything else fails the run.
//
// Diagnostics are printed for every package before exiting (no fail-fast):
// one clean run shows everything there is to fix. Exit status: 0 when
// there are no findings, 1 when any finding was reported, 2 when packages
// failed to load or type-check (nothing is analyzed then).
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
}

func main() {
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tapslint [-list] [-json] [packages...]\n")
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

	diags := lint.Run(pkgs, analyzers)

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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{Findings: findings}); err != nil {
			fmt.Fprintln(os.Stderr, "tapslint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Check, f.Message)
		}
	}

	if len(findings) > 0 {
		os.Exit(1)
	}
}
