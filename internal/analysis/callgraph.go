package analysis

import (
	"go/ast"
	"go/types"
)

// The interprocedural foundation shared by leakcheck and clockcheck: a
// lightweight static call graph over every function declaration AND
// function literal in the program. It is built once per Program (lazily,
// memoized) and stays deliberately simple — edges exist only where the
// callee resolves statically through go/types (direct calls, method calls on
// concrete receivers). Dynamic dispatch (interface methods, function values)
// yields call sites with a nil Callee, which checkers treat conservatively.

// FuncNode is one function body: a declaration or a literal.
type FuncNode struct {
	// Pkg is the package the body lives in.
	Pkg *Package
	// Body is the function body (never nil for graph nodes).
	Body *ast.BlockStmt
	// Lits are the function literals declared directly in this body.
	Lits []*FuncNode
	// Calls are the call sites lexically in this body, excluding those
	// inside nested literals (they belong to the literal's node).
	Calls []*CallSite
	// GoSpawns are the go statements lexically in this body.
	GoSpawns []*GoSite
}

// CallSite is one call expression inside a FuncNode.
type CallSite struct {
	// Call is the expression.
	Call *ast.CallExpr
	// Callee is the statically resolved target, nil for dynamic calls
	// (interface methods, invoked function values, builtins).
	Callee *types.Func
}

// GoSite is one go statement inside a FuncNode. Exactly one of Callee and
// Lit is set when the spawned body is statically known; both are nil when
// the spawned function is dynamic (a function value or interface method).
type GoSite struct {
	Stmt *ast.GoStmt
	// Callee is the spawned declared function, if static.
	Callee *types.Func
	// Lit is the spawned literal's node for `go func(){...}()`.
	Lit *FuncNode
}

// CallGraph indexes every FuncNode of a Program.
type CallGraph struct {
	// Nodes lists every function body in deterministic (source) order.
	Nodes []*FuncNode
	// ByObj maps declared functions to their nodes.
	ByObj map[*types.Func]*FuncNode
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.callGraph == nil {
		p.callGraph = buildCallGraph(p)
	}
	return p.callGraph
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{ByObj: make(map[*types.Func]*FuncNode)}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := &FuncNode{Pkg: pkg, Body: fd.Body}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.ByObj[obj] = node
				}
				g.Nodes = append(g.Nodes, node)
				g.scanBody(node)
			}
		}
	}
	return g
}

// scanBody fills a node's calls, spawns and nested literals, recursing into
// each literal as its own node.
func (g *CallGraph) scanBody(node *FuncNode) {
	// goCalls marks the operand CallExprs of go statements so the generic
	// call walk below can skip double-recording them as plain calls.
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			g.addLit(node, x)
			return false
		case *ast.GoStmt:
			site := &GoSite{Stmt: x}
			goCalls[x.Call] = true
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				// go func(){...}(): create the literal's node here so the spawn
				// site can point at it, and skip the generic FuncLit arm.
				site.Lit = g.addLit(node, lit)
				node.GoSpawns = append(node.GoSpawns, site)
				// Arguments to the spawned literal still evaluate in the
				// caller; record their calls.
				for _, arg := range x.Call.Args {
					g.scanExprCalls(node, arg, goCalls)
				}
				return false
			}
			site.Callee = calleeFunc(node.Pkg.Info, x.Call)
			node.GoSpawns = append(node.GoSpawns, site)
			return true
		case *ast.CallExpr:
			if !goCalls[x] {
				g.addCall(node, x)
			}
			return true
		}
		return true
	})
}

// scanExprCalls records the call sites (and literal nodes) inside a
// detached expression subtree, e.g. the arguments of a spawned literal.
func (g *CallGraph) scanExprCalls(node *FuncNode, e ast.Expr, goCalls map[*ast.CallExpr]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			g.addLit(node, x)
			return false
		case *ast.CallExpr:
			if !goCalls[x] {
				g.addCall(node, x)
			}
		}
		return true
	})
}

// addLit makes a literal nested in node its own graph node and scans it.
func (g *CallGraph) addLit(node *FuncNode, lit *ast.FuncLit) *FuncNode {
	ln := &FuncNode{Pkg: node.Pkg, Body: lit.Body}
	node.Lits = append(node.Lits, ln)
	g.Nodes = append(g.Nodes, ln)
	g.scanBody(ln)
	return ln
}

func (g *CallGraph) addCall(node *FuncNode, call *ast.CallExpr) {
	node.Calls = append(node.Calls, &CallSite{Call: call, Callee: calleeFunc(node.Pkg.Info, call)})
}

func pkgPathOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// inspectOwnBody walks a node's body without descending into nested
// function literals (their statements belong to their own nodes).
func inspectOwnBody(node *FuncNode, fn func(ast.Node) bool) {
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
