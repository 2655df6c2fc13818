// Package analysis is the repo-specific static-analysis framework behind
// cmd/rls-lint. It loads every package in the module with nothing but the
// standard library (go/parser + go/types; stdlib dependencies are
// type-checked from source via go/importer), then runs a pluggable set of
// checkers that enforce invariants the compiler cannot see:
//
//   - lockcheck:  mutexes are released on every return path and never held
//     across network/file I/O, sleeps or channel sends
//   - wirecheck:  every wire.Op constant has an RPC wrapper in the client
//     package (names and the server's op table are covered by tests)
//   - ctxcheck:   exported blocking APIs in the client/lrc/rli packages
//     accept a context.Context first and propagate it
//   - errcheck:   no silently discarded error results outside tests
//   - leakcheck:  goroutines spawned in the long-lived packages have a
//     statically reachable shutdown edge
//   - clockcheck: per-package policy against raw wall-clock reads and the
//     global math/rand source
//
// The last two share a lazily built call graph over declarations and
// function literals (callgraph.go). The storage engine's declared-table-set
// invariant is not checked here: Tx rejects an undeclared table at run time
// with storage.ErrTableNotDeclared, and the storage and rdb tests pin it.
//
// Checkers report Diagnostics; the driver applies //lint:ignore directives
// (see directives.go) and renders them as text.
package analysis

import (
	"fmt"
	"sort"

	"go/token"
)

// Diagnostic is one finding, positioned at a concrete file:line.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
}

// String renders the conventional compiler-style form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Checker, d.Message)
}

// Checker is one analysis pass over a loaded program.
type Checker interface {
	// Name is the identifier used in output and //lint:ignore directives.
	Name() string
	// Check inspects the program and returns findings.
	Check(prog *Program) []Diagnostic
}

// Run executes every checker, applies suppression directives, reports
// malformed or unused directives, and returns the surviving diagnostics
// sorted by position.
func Run(prog *Program, checkers []Checker) []Diagnostic {
	var diags []Diagnostic
	for _, c := range checkers {
		for _, d := range c.Check(prog) {
			d.Checker = c.Name()
			diags = append(diags, d)
		}
	}
	dirs, dirDiags := collectDirectives(prog)
	diags = append(applyDirectives(diags, dirs), dirDiags...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Checker < b.Checker
	})
	return diags
}
