package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck enforces the OpLocks critical-section discipline on the
// replicated-block data path (paper §3: a site is either operational
// and follows the protocol, or it is down; there is no third state in
// which it mutates replica state outside the protocol's mutual
// exclusion). Controllers take OpLocks through the scheme.Op bracket,
// so the rules key on its acquire/end pair.
//
// Within internal/{voting,availcopy,naiveac,core} it checks:
//
//  1. pairing: an acquisition (OpLocks.BeginOp/BeginRecovery) must be
//     a statement `op := ...` immediately followed by `defer op.End(..)`
//     on that variable, and End may only appear in defer position;
//  2. ordering: a function must not acquire OpLocks twice — with the
//     end deferred the first acquisition is held to return, so a second
//     one self-deadlocks (stripe vs recovery exclusion must be split
//     across functions);
//  3. guarded mutation: calls to site.Replica mutators (WriteLocal,
//     SetState, SetWasAvailable) must happen in a locked context —
//     after the function's own acquisition, or in a function every
//     intra-package caller of which acquires. (Installing a page of a
//     peer's block copies, ApplyRepair, is version-conditional per block
//     and atomic as a page under the replica's own mutex, one hold per
//     page, and needs no OpLocks.)
//
// The store layer joined the scope with group commit (DESIGN.md §12):
// SegStore serialises image and segment mutation under one mutex and
// names every helper that assumes it with a *Locked suffix. Within
// internal/store a fourth rule enforces that convention:
//
//  4. Locked-suffix discipline: a same-package *Locked function may
//     only be called from a function that itself acquires a
//     sync.Mutex/RWMutex or carries the Locked suffix too (documented
//     exceptions — e.g. constructors running before the store is
//     shared — use //relidev:allow locking).
var LockCheck = &Analyzer{
	Name:  "lockcheck",
	Topic: "locking",
	Doc: "check OpLocks pairing/ordering and that per-site replica state " +
		"is only mutated inside an OpLocks critical section",
	Run: runLockCheck,
}

var lockScopeElems = []string{"voting", "availcopy", "naiveac", "core"}

// storeScopeElem scopes the Locked-suffix rule to the store layer.
const storeScopeElem = "store"

var replicaMutators = map[string]bool{
	"WriteLocal":      true,
	"SetState":        true,
	"SetWasAvailable": true,
}

// bracketMethod returns the bracket method a call resolves to:
// "BeginOp" or "BeginRecovery" (acquisitions, on scheme.OpLocks), "End"
// (on scheme.Op), or "".
func bracketMethod(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || !samePkgPath(fn.Pkg().Path(), schemePkgPath) {
		return ""
	}
	switch recv, name := recvBaseName(fn), fn.Name(); {
	case recv == "OpLocks" && (name == "BeginOp" || name == "BeginRecovery"), recv == "Op" && name == "End":
		return name
	}
	return ""
}

// isReplicaMutator reports whether a call mutates site.Replica state.
func isReplicaMutator(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || !samePkgPath(fn.Pkg().Path(), sitePkgPath) {
		return false
	}
	return replicaMutators[fn.Name()] && recvBaseName(fn) == "Replica"
}

// lockFnState is the lock behavior of one function decl or literal.
type lockFnState struct {
	locked   bool // acquires OpLocks in its own body
	mutants  []*ast.CallExpr
	acquires []*ast.CallExpr
}

func runLockCheck(p *Pass) {
	if pkgHasElement(p.Types, storeScopeElem) {
		checkLockedSuffix(p)
	}
	if !pkgHasElement(p.Types, lockScopeElems...) {
		return
	}

	graph := p.CallGraph()
	states := make(map[ast.Node]*lockFnState)
	var fnNodes []ast.Node // decls and literals across all files, in source order

	// Phase 1: collect lock acquisitions and mutator calls per
	// function node. Call edges come from the shared package call
	// graph instead of a hand-rolled caller map.
	paired := make(map[*ast.CallExpr]bool) // acquisitions in the canonical two-statement shape
	for _, file := range p.Files {
		checkLockPairing(p, file, paired)

		tree := buildFuncTree(file)
		for _, fn := range tree.funcs {
			states[fn] = &lockFnState{}
			fnNodes = append(fnNodes, fn)
		}

		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			owner := graph.EnclosingFunc(n)
			if owner == nil {
				return true // package-level initializer expression
			}
			st := states[owner]
			switch bracketMethod(p.Info, call) {
			case "BeginOp", "BeginRecovery":
				st.locked = true
				st.acquires = append(st.acquires, call)
				if !paired[call] {
					p.Reportf(call.Pos(),
						"OpLocks.%s must be the statement 'op := ...' immediately followed by 'defer op.End(&err)' on that variable", calleeOf(p.Info, call).Name())
				}
			}
			if isReplicaMutator(p.Info, call) {
				st.mutants = append(st.mutants, call)
			}
			return true
		})
	}

	// declLocked is the cross-function fact the caller check
	// propagates: this declaration acquires OpLocks in its own body.
	declLocked := func(fn *types.Func) bool {
		node := graph.Node(fn)
		return node != nil && states[node.Decl] != nil && states[node.Decl].locked
	}

	// Phase 2: report ordering violations and unguarded mutations.
	for _, fn := range fnNodes {
		st := states[fn]
		if len(st.acquires) < 2 {
			continue
		}
		for _, extra := range st.acquires[1:] {
			p.Reportf(extra.Pos(),
				"OpLocks acquired while an earlier acquisition in the same function is still held (the end is deferred to return); stripe and recovery exclusion must not nest")
		}
	}

	for _, fn := range fnNodes {
		st := states[fn]
		if len(st.mutants) == 0 {
			continue
		}
		// A function's own acquisition guards what follows it, not what
		// was hoisted above it.
		if st.locked {
			for _, call := range st.mutants {
				if call.Pos() < st.acquires[0].Pos() {
					p.Reportf(call.Pos(),
						"site.Replica.%s before the OpLocks acquisition: the mutation runs outside the critical section",
						calleeOf(p.Info, call).Name())
				}
			}
			continue
		}
		// Otherwise lockedness flows from enclosing function literals,
		// then from the intra-package callers via the call graph.
		guarded := false
		for o := graph.ParentFunc(fn); o != nil; o = graph.ParentFunc(o) {
			if states[o].locked {
				guarded = true
				break
			}
		}
		if !guarded {
			if obj := graph.EnclosingDecl(st.mutants[0]); obj != nil {
				guarded = graph.AllCallersSatisfy(obj, declLocked)
			}
		}
		if guarded {
			continue
		}
		for _, call := range st.mutants {
			p.Reportf(call.Pos(),
				"site.Replica.%s outside an OpLocks critical section: neither this function nor all of its intra-package callers hold the lock",
				calleeOf(p.Info, call).Name())
		}
	}
}

// isMutexAcquire reports whether a call acquires a sync.Mutex or
// sync.RWMutex (Lock or RLock).
func isMutexAcquire(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	if fn.Name() != "Lock" && fn.Name() != "RLock" {
		return false
	}
	base := recvBaseName(fn)
	return base == "Mutex" || base == "RWMutex"
}

// checkLockedSuffix enforces rule 4 in the store layer: a call to a
// same-package function or method named *Locked must come from a
// function that acquires a sync mutex in its own body, or is itself
// *Locked (the convention's way of passing the obligation up).
func checkLockedSuffix(p *Pass) {
	for _, file := range p.Files {
		tree := buildFuncTree(file)
		holds := make(map[ast.Node]bool)
		type suffixCall struct {
			call  *ast.CallExpr
			owner ast.Node
			name  string
		}
		var calls []suffixCall
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			owner := tree.owner[n]
			if owner == nil {
				return true
			}
			if isMutexAcquire(p.Info, call) {
				holds[owner] = true
			}
			if fn := calleeOf(p.Info, call); fn != nil && fn.Pkg() == p.Types &&
				strings.HasSuffix(fn.Name(), "Locked") {
				calls = append(calls, suffixCall{call: call, owner: owner, name: fn.Name()})
			}
			return true
		})
		for _, sc := range calls {
			guarded := false
			for o := sc.owner; o != nil; o = tree.parent[o] {
				if holds[o] || funcNodeIsLocked(o) {
					guarded = true
					break
				}
			}
			if !guarded {
				p.Reportf(sc.call.Pos(),
					"%s called without holding the store mutex: callers of *Locked helpers must acquire the lock themselves or carry the Locked suffix", sc.name)
			}
		}
	}
}

// funcNodeIsLocked reports whether a function declaration's own name
// ends in Locked (literals have no name and never qualify).
func funcNodeIsLocked(n ast.Node) bool {
	d, ok := n.(*ast.FuncDecl)
	return ok && strings.HasSuffix(d.Name.Name, "Locked")
}

// checkLockPairing walks every statement list: it records in paired the
// acquisitions written as `op := acquire(...)` immediately followed by
// `defer op.End(...)` on the same variable, and reports every End that
// is not in defer position.
func checkLockPairing(p *Pass, file *ast.File, paired map[*ast.CallExpr]bool) {
	forEachStmtList(file, func(list []ast.Stmt) {
		for i, stmt := range list {
			switch stmt := stmt.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok && bracketMethod(p.Info, call) == "End" {
					p.Reportf(call.Pos(),
						"Op.End outside a defer: the end must be deferred immediately after the acquisition so failures cannot leak the lock")
				}
			case *ast.AssignStmt:
				if stmt.Tok != token.DEFINE || len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 || i+1 >= len(list) {
					continue
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok || !strings.HasPrefix(bracketMethod(p.Info, call), "Begin") {
					continue
				}
				if d, ok := list[i+1].(*ast.DeferStmt); ok && bracketMethod(p.Info, d.Call) == "End" {
					sel := ast.Unparen(d.Call.Fun).(*ast.SelectorExpr)
					paired[call] = nodeText(p.Fset, sel.X) == nodeText(p.Fset, stmt.Lhs[0])
				}
			}
		}
	})
}
