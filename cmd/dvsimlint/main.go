// Command dvsimlint is the multichecker for dvsim's custom static
// analyzers: it type-checks the requested packages and enforces the
// determinism and kernel invariants the simulator's goldens and
// benchmarks rely on (see internal/lint and DESIGN.md §"Static
// analysis & invariants").
//
// Usage:
//
//	go run ./cmd/dvsimlint ./...            # lint the module (CI gate)
//	go run ./cmd/dvsimlint -list            # print the analyzer catalog
//	go run ./cmd/dvsimlint -json ./...      # findings as JSON, for tooling
//	go run ./cmd/dvsimlint -hotalloc-only   # just the escape gate
//	go run ./cmd/dvsimlint -hotalloc-write  # regenerate the escape allowlist
//	go run ./cmd/dvsimlint ./internal/sim ./internal/node
//
// dvsimlint exits non-zero when any finding remains. Intentional
// violations are silenced in place with a justified directive:
//
//	//lint:allow <analyzer> <reason>
//
// The hotalloc escape gate (the seventh analyzer; it drives the
// compiler, not the AST) runs whenever the requested patterns cover the
// whole module; -hotalloc=false skips it, -hotalloc-only runs nothing
// else, and -hotalloc-diff writes the got-vs-allowlist comparison to a
// file for CI artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dvsim/internal/lint"
	"dvsim/internal/lint/hotalloc"
	"dvsim/internal/lint/load"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	hot := flag.Bool("hotalloc", true, "run the hotalloc escape gate (only applies to whole-module runs)")
	hotOnly := flag.Bool("hotalloc-only", false, "run only the hotalloc escape gate")
	hotWrite := flag.Bool("hotalloc-write", false, "regenerate the hotalloc allowlist from the current tree and exit")
	hotDiff := flag.String("hotalloc-diff", "", "write the hotalloc got-vs-allowlist diff to this `file`")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dvsimlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Summary())
		}
		fmt.Printf("%-16s %s\n", "hotalloc", "static zero-alloc gate: fails on escape-analysis diagnostics in hot packages not in the committed allowlist")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modRoot, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	var findings []lint.Finding
	var pkgs []*load.Package
	if !*hotOnly && !*hotWrite {
		pkgs, err = load.Load(modRoot, patterns...)
		if err != nil {
			fatal(err)
		}
		findings, err = lint.Run(pkgs, analyzers, lint.Options{})
		if err != nil {
			fatal(err)
		}
	}

	// The escape gate is part of the default whole-module run: a
	// scoped invocation (dvsimlint ./internal/node) is a focused query
	// and skips it.
	hotFailures := 0
	wholeModule := len(flag.Args()) == 0 || hasPattern(patterns, "./...")
	if *hotWrite || *hotOnly || (*hot && wholeModule) {
		hotFailures = runHotalloc(modRoot, *hotWrite, *hotDiff)
	}

	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(jsonFindings(modRoot, findings)); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			f.Pos.Filename = relTo(modRoot, f.Pos.Filename)
			fmt.Println(f)
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "dvsimlint: %d finding(s) in %d package(s)\n", n, len(pkgs))
	}
	if len(findings) > 0 || hotFailures > 0 {
		os.Exit(1)
	}
}

// runHotalloc drives the escape gate and returns the number of
// failures (0 on a pass). With write set it regenerates the allowlist
// instead of comparing.
func runHotalloc(modRoot string, write bool, diffPath string) int {
	allowPath := filepath.Join(modRoot, filepath.FromSlash(hotalloc.AllowlistPath))
	allowed, err := hotalloc.LoadAllowlist(allowPath)
	if err != nil {
		fatal(err)
	}
	rep, err := hotalloc.Run(modRoot, hotalloc.Targets(), allowed)
	if err != nil {
		fatal(err)
	}
	if write {
		if err := os.WriteFile(allowPath, []byte(hotalloc.FormatAllowlist(rep.Counts)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dvsimlint: wrote %d allowlist entr(ies) to %s\n", len(rep.Counts), relTo(modRoot, allowPath))
		return 0
	}
	if diffPath != "" {
		if err := os.WriteFile(diffPath, []byte(rep.Diff()), 0o644); err != nil {
			fatal(err)
		}
	}
	failures := rep.Failures()
	for _, f := range failures {
		fmt.Printf("hotalloc: new heap escape: %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "dvsimlint: hotalloc gate: %d escape(s) beyond the allowlist (regenerate with -hotalloc-write and commit the diff if intentional)\n", len(failures))
	}
	return len(failures)
}

// jsonFinding is the machine-readable finding shape for -json.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func jsonFindings(modRoot string, findings []lint.Finding) []jsonFinding {
	out := make([]jsonFinding, len(findings))
	for i, f := range findings {
		out[i] = jsonFinding{
			File:     relTo(modRoot, f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		}
	}
	return out
}

func hasPattern(patterns []string, want string) bool {
	for _, p := range patterns {
		if p == want {
			return true
		}
	}
	return false
}

// relTo shortens path relative to root for readable diagnostics.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvsimlint:", err)
	os.Exit(2)
}
