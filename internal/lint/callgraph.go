package lint

import (
	"go/ast"
	"go/types"
)

// The call-graph engine upgrades the framework from purely
// intraprocedural analyzers to interprocedural ones: every package is
// summarized once into a CallGraph whose nodes are the package's
// function declarations and whose edges record how control can flow
// between them — plain calls, `go` spawns, `defer`s, and *references*
// (a method value or function value that escapes the call position,
// e.g. `f := s.flushLoop; go f()`), which a purely syntactic
// call-matcher would miss. Function literals are attributed to their
// enclosing declaration: a closure runs in its declarer's context, so
// facts about the declaration (holds a lock, joins a WaitGroup, sits
// on the wire path) cover the closures it spawns.
//
// Analyzers derive per-function facts (this function calls wg.Wait;
// this method is a Transport entry point) and propagate them over the
// graph with ForwardClosure / AllCallersSatisfy, which handle
// recursion and mutual recursion by fixpoint and conservative cycle
// treatment respectively. lockcheck, transportcheck, and leakcheck all
// share the one graph, built lazily and cached on the Package.

// EdgeKind classifies how a caller can transfer control to a callee.
type EdgeKind int

// Edge kinds.
const (
	// EdgeCall is a plain call expression in statement or value position.
	EdgeCall EdgeKind = iota
	// EdgeGo is a `go` statement spawning the callee.
	EdgeGo
	// EdgeDefer is a `defer` statement invoking the callee.
	EdgeDefer
	// EdgeRef is a reference to the callee outside call position: a
	// method value or function value that may be invoked anywhere it
	// flows. Reachability treats it as a possible call.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeRef:
		return "ref"
	}
	return "?"
}

// An Edge is one caller→callee relationship with its source position.
type Edge struct {
	Caller *types.Func // enclosing declaration; nil for package-level initializer expressions
	Callee *types.Func
	Kind   EdgeKind
	Site   ast.Node // the CallExpr, or the referencing Ident for EdgeRef
}

// A CGNode is one function declaration in the graph.
type CGNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	// Out and In are the edges leaving and entering this declaration,
	// in source order of their sites.
	Out []Edge
	In  []Edge
}

// A CallGraph is the package-level call graph plus the ownership maps
// interprocedural analyzers need to attribute arbitrary AST nodes to
// their enclosing declaration.
type CallGraph struct {
	pkg   *Package
	nodes map[*types.Func]*CGNode
	// owner maps every AST node to its nearest enclosing FuncDecl or
	// FuncLit; parent maps each FuncDecl/FuncLit to its enclosing one.
	owner  map[ast.Node]ast.Node
	parent map[ast.Node]ast.Node
	// declObj maps FuncDecl nodes to their objects.
	declObj map[ast.Node]*types.Func
}

// CallGraph returns the package's call graph, building it on first
// use. All analyzers running on the package share the one graph.
func (pkg *Package) CallGraph() *CallGraph {
	if pkg.graph == nil {
		pkg.graph = buildCallGraph(pkg)
	}
	return pkg.graph
}

func buildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{
		pkg:     pkg,
		nodes:   make(map[*types.Func]*CGNode),
		owner:   make(map[ast.Node]ast.Node),
		parent:  make(map[ast.Node]ast.Node),
		declObj: make(map[ast.Node]*types.Func),
	}

	// Pass 1: nodes and ownership.
	for _, file := range pkg.Files {
		tree := buildFuncTree(file)
		for n, o := range tree.owner {
			g.owner[n] = o
		}
		for n, p := range tree.parent {
			g.parent[n] = p
		}
		for _, fn := range tree.funcs {
			decl, ok := fn.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &CGNode{Obj: obj, Decl: decl}
			g.nodes[obj] = node
			g.declObj[decl] = obj
		}
	}

	// Pass 2: edges. Calls in call position become EdgeCall (or EdgeGo
	// / EdgeDefer when the call is the operand of a go or defer
	// statement); uses of a same-package declaration outside call
	// position become EdgeRef.
	for _, file := range pkg.Files {
		// callKind tags each CallExpr with how it runs; callFunIdent
		// marks the idents consumed as the callee of some call so the
		// ident walk below does not double-count them as references.
		callKind := make(map[*ast.CallExpr]EdgeKind)
		callFunIdent := make(map[*ast.Ident]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				callKind[n.Call] = EdgeGo
			case *ast.DeferStmt:
				callKind[n.Call] = EdgeDefer
			case *ast.CallExpr:
				if _, tagged := callKind[n]; !tagged {
					callKind[n] = EdgeCall
				}
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					callFunIdent[fun] = true
				case *ast.SelectorExpr:
					callFunIdent[fun.Sel] = true
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := calleeOf(pkg.Info, n)
				if fn := g.nodes[callee]; callee != nil && fn != nil {
					g.addEdge(Edge{Caller: g.EnclosingDecl(n), Callee: callee, Kind: callKind[n], Site: n})
				}
			case *ast.Ident:
				if callFunIdent[n] {
					return true
				}
				callee, ok := pkg.Info.Uses[n].(*types.Func)
				if !ok || g.nodes[callee] == nil {
					return true
				}
				g.addEdge(Edge{Caller: g.EnclosingDecl(n), Callee: callee, Kind: EdgeRef, Site: n})
			}
			return true
		})
	}
	return g
}

func (g *CallGraph) addEdge(e Edge) {
	g.nodes[e.Callee].In = append(g.nodes[e.Callee].In, e)
	if e.Caller != nil {
		if cn := g.nodes[e.Caller]; cn != nil {
			cn.Out = append(cn.Out, e)
		}
	}
}

// Node returns the graph node for fn, or nil if fn is not a
// declaration in this package.
func (g *CallGraph) Node(fn *types.Func) *CGNode { return g.nodes[fn] }

// EnclosingDecl returns the *types.Func of the function declaration
// lexically enclosing n, walking out of any function literals (a
// closure is attributed to its declarer). Nil for package-level
// initializer expressions.
func (g *CallGraph) EnclosingDecl(n ast.Node) *types.Func {
	for o := g.owner[n]; o != nil; o = g.parent[o] {
		if decl, ok := o.(*ast.FuncDecl); ok {
			return g.declObj[decl]
		}
	}
	return nil
}

// EnclosingFunc returns the innermost FuncDecl or FuncLit node
// enclosing n, or nil at package level.
func (g *CallGraph) EnclosingFunc(n ast.Node) ast.Node { return g.owner[n] }

// ParentFunc returns the function node (FuncDecl or FuncLit) enclosing
// fn, or nil.
func (g *CallGraph) ParentFunc(fn ast.Node) ast.Node { return g.parent[fn] }

// ForwardClosure returns the set of declarations reachable from the
// seed set by following outgoing edges whose kind is accepted by
// follow (nil follows every kind, including references and spawns).
// Recursion and mutual recursion terminate naturally: the closure is a
// fixpoint over a finite node set.
func (g *CallGraph) ForwardClosure(seed map[*types.Func]bool, follow func(Edge) bool) map[*types.Func]bool {
	out := make(map[*types.Func]bool, len(seed))
	var stack []*types.Func
	for fn := range seed {
		out[fn] = true
		stack = append(stack, fn)
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := g.nodes[fn]
		if node == nil {
			continue
		}
		for _, e := range node.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if !out[e.Callee] {
				out[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	return out
}

// AllCallersSatisfy reports whether every path by which fn can be
// invoked begins in a function satisfying ok: each caller either
// satisfies ok itself or has all of *its* callers satisfying the same
// property, transitively. A function with no callers fails (nothing
// vouches for it), and cycles are treated conservatively: a recursive
// path cannot vouch for itself.
func (g *CallGraph) AllCallersSatisfy(fn *types.Func, ok func(*types.Func) bool) bool {
	return g.allCallers(fn, ok, make(map[*types.Func]bool))
}

func (g *CallGraph) allCallers(fn *types.Func, ok func(*types.Func) bool, visiting map[*types.Func]bool) bool {
	if visiting[fn] {
		return false // recursion: stay conservative
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	node := g.nodes[fn]
	if node == nil || len(node.In) == 0 {
		return false
	}
	for _, e := range node.In {
		if e.Caller == nil {
			return false // invoked from a package-level initializer
		}
		if ok(e.Caller) {
			continue
		}
		if !g.allCallers(e.Caller, ok, visiting) {
			return false
		}
	}
	return true
}
