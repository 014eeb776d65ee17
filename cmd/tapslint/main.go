// Command tapslint runs the repository's determinism and concurrency lint
// pass (internal/lint) over module packages.
//
//	tapslint [-list] [packages...]
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
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"taps/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tapslint [-list] [packages...]\n")
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

	for _, d := range diags {
		fmt.Printf("%s:%d:%d: %s: %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
