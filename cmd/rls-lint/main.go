// Command rls-lint runs the repo-specific static-analysis suite
// (internal/analysis) over the module and reports invariant violations the
// compiler cannot see. It exits 1 when any diagnostic survives the
// //lint:ignore directives, so `make lint` and CI gate on it.
//
// Usage:
//
//	rls-lint [-github] [patterns ...]
//
// Patterns follow the usual shape: ./... (default), ./internal/...,
// ./internal/wire. With -github, diagnostics are additionally emitted as
// GitHub Actions workflow commands (::error file=...,line=...) so findings
// annotate the PR diff.
//
// Exit codes: 0 clean, 1 findings, 2 usage error, 3 the target packages
// failed to parse or type-check (the lint could not run — distinct from
// "ran and found nothing" so CI never mistakes broken code for clean code).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// suite returns every checker.
func suite() []analysis.Checker {
	return []analysis.Checker{
		analysis.LockCheck{},
		analysis.DefaultWireCheck(),
		analysis.DefaultCtxCheck(),
		analysis.ErrCheck{},
		analysis.DefaultLeakCheck(),
		analysis.DefaultClockCheck(),
	}
}

func main() {
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, _, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	prog, err := analysis.Load(root, patterns)
	if err != nil {
		var le *analysis.LoadError
		if errors.As(err, &le) {
			fmt.Fprintf(os.Stderr, "rls-lint: cannot analyze %s: %v\n", le.Path, le.Err)
			os.Exit(3)
		}
		fatal(err)
	}

	diags := analysis.Run(prog, suite())
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d.String())
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=rls-lint %s::%s\n",
				filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Checker, githubEscape(d.Message))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rls-lint: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
}

// githubEscape applies the workflow-command data escaping rules: %, CR and
// LF must be encoded or the annotation truncates at the first newline.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rls-lint:", err)
	os.Exit(2)
}
