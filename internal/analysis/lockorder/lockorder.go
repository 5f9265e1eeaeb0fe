// Package lockorder flags two-lock sequences on striped bucket locks,
// including sequences split across function boundaries.
//
// The paper's deadlock-avoidance rule (§4.4) is that a displacement locks
// its two buckets' stripes in ascending stripe-index order, and the
// codebase centralizes that ordering in Stripe.LockPair (and LockAll for
// the pessimistic whole-table path). Any code that calls Stripe.Lock twice
// without an intervening Unlock has re-derived the ordering by hand — or,
// far more likely, has not, and will deadlock against a concurrent
// displacement locking the same pair in the opposite order. The bug
// compiles cleanly and deadlocks only under exactly-interleaved writers,
// so it is machine-checked here.
//
// The check is interprocedural: every function gets a lock summary from
// the callgraph — whether it (transitively, through static calls) takes a
// raw Stripe.Lock, and whether it returns with stripe locks still held
// (Table.lockAllGens). Calling a raw-locking function while a stripe lock
// is held is the same hand-ordered two-lock sequence, merely hidden
// behind a call; it is reported at the call site. A call to a function
// that returns holding locks extends the held set with a sentinel that
// the matching Unlock/UnlockOrdered releases.
//
// Nesting across lock *types* — a transaction key stripe over the backing
// store's bucket stripes — follows the documented store hierarchy
// (internal/txn package doc) and is legal as long as the inner layer goes
// through LockPair/LockOrdered; only raw Lock propagates through
// summaries. Dynamic calls (interface methods, function values) are not
// followed: the held-set reasoning would cross object instances where the
// hierarchy, not the order rule, governs.
package lockorder

import (
	"go/ast"
	"go/types"
	"strings"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/callgraph"
	"cuckoohash/internal/analysis/checkutil"
)

// LockFact summarizes a function's striped-lock behavior for callers.
type LockFact struct {
	RawLock bool // transitively performs a raw Stripe.Lock
	NetHeld bool // returns with stripe locks held (lockAllGens)
}

func (*LockFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "flag second Stripe.Lock while a stripe lock is held: bucket pairs " +
		"must go through LockPair/ordered helpers (§4.4 deadlock-avoidance rule)",
	Requires: []*analysis.Analyzer{callgraph.Analyzer},
	Run:      run,
}

// A "striped lock" is any type that offers both Lock and LockPair: the
// presence of LockPair is the type's own declaration that raw consecutive
// Lock calls are not the supported way to take two stripes.
func isStripedLock(t types.Type) bool {
	return checkutil.HasMethods(t, "Lock", "Unlock", "LockPair")
}

const sentinelPrefix = "locks held by "

func run(pass *analysis.Pass) (any, error) {
	// Phase 1: export lock summaries for this package's functions so the
	// walker (and downstream packages) can consult them uniformly.
	if g, ok := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph); ok && g != nil {
		c := &facts{pass: pass, g: g, state: make(map[*types.Func]int), done: make(map[*types.Func]LockFact)}
		for fn := range g.Funcs {
			c.compute(fn)
		}
	}
	// Phase 2: branch-sensitive held-set walk over every body.
	for _, file := range pass.Files {
		for _, fb := range checkutil.Bodies(file) {
			w := &walker{pass: pass}
			w.block(nil, fb.Body.List)
		}
	}
	return nil, nil
}

// facts computes LockFact per function from callgraph summaries, with
// memoized recursion (cycles resolve to the empty fact).
type facts struct {
	pass  *analysis.Pass
	g     *callgraph.Graph
	state map[*types.Func]int // 1 = computing, 2 = done
	done  map[*types.Func]LockFact
}

func (c *facts) compute(fn *types.Func) LockFact {
	fn = fn.Origin()
	if lf, ok := c.done[fn]; ok {
		return lf
	}
	sum := c.g.Funcs[fn]
	if sum == nil {
		var lf LockFact
		c.pass.ImportObjectFact(fn, &lf)
		return lf
	}
	if c.state[fn] == 1 {
		return LockFact{} // cycle: assume balanced and pair-locked
	}
	c.state[fn] = 1
	var lf LockFact
	acq, rel := 0, 0
	for i := range sum.Calls {
		call := &sum.Calls[i]
		if call.Go || call.Callee == nil {
			continue
		}
		if call.RecvType != nil && isStripedLock(call.RecvType) {
			if call.Callee.Pkg() == fn.Pkg() {
				continue // the lock type's own package implements the ordering
			}
			switch call.Callee.Name() {
			case "Lock":
				lf.RawLock = true
				acq++
			case "LockPair", "LockAll", "LockOrdered":
				acq++
			case "Unlock", "UnlockPair", "UnlockAll", "UnlockOrdered":
				rel++
			}
			continue
		}
		sub := c.compute(call.Callee)
		if sub.RawLock {
			lf.RawLock = true
		}
		if sub.NetHeld {
			acq++
		}
	}
	if acq > rel {
		lf.NetHeld = true
	}
	c.state[fn] = 2
	c.done[fn] = lf
	if lf.RawLock || lf.NetHeld {
		c.pass.ExportObjectFact(fn, &lf)
	}
	return lf
}

// walker tracks, in source order with branch-sensitive merging, which raw
// stripe locks are held. Held locks are keyed by the printed receiver
// expression so Lock/Unlock pairs on the same stripe table cancel out;
// calls to functions that return holding locks push a sentinel entry.
type walker struct {
	pass *analysis.Pass
}

// block processes stmts sequentially, threading the held set through.
func (w *walker) block(held []string, stmts []ast.Stmt) []string {
	for _, s := range stmts {
		held = w.stmt(held, s)
	}
	return held
}

func (w *walker) stmt(held []string, s ast.Stmt) []string {
	switch st := s.(type) {
	case nil:
		return held
	case *ast.BlockStmt:
		return w.block(held, st.List)
	case *ast.IfStmt:
		held = w.stmt(held, st.Init)
		held = w.expr(held, st.Cond)
		a := w.stmt(copyOf(held), st.Body)
		b := w.stmt(copyOf(held), st.Else)
		return union(a, b)
	case *ast.ForStmt:
		held = w.stmt(held, st.Init)
		held = w.expr(held, st.Cond)
		after := w.stmt(copyOf(held), st.Body)
		after = w.stmt(after, st.Post)
		return union(held, after)
	case *ast.RangeStmt:
		held = w.expr(held, st.X)
		after := w.stmt(copyOf(held), st.Body)
		return union(held, after)
	case *ast.SwitchStmt:
		held = w.stmt(held, st.Init)
		held = w.expr(held, st.Tag)
		return w.branches(held, st.Body)
	case *ast.TypeSwitchStmt:
		held = w.stmt(held, st.Init)
		return w.branches(held, st.Body)
	case *ast.SelectStmt:
		return w.branches(held, st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			held = w.expr(held, e)
		}
		return w.block(held, st.Body)
	case *ast.CommClause:
		held = w.stmt(held, st.Comm)
		return w.block(held, st.Body)
	case *ast.DeferStmt:
		// Deferred Unlocks run at return, not here: a deferred UnlockPair
		// does not license another raw Lock in the body. Skip the call but
		// scan its arguments, which are evaluated now.
		for _, arg := range st.Call.Args {
			held = w.expr(held, arg)
		}
		return held
	case *ast.GoStmt:
		for _, arg := range st.Call.Args {
			held = w.expr(held, arg)
		}
		return held
	case *ast.ExprStmt:
		return w.expr(held, st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			held = w.expr(held, e)
		}
		for _, e := range st.Lhs {
			held = w.expr(held, e)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			held = w.expr(held, e)
		}
		return held
	case *ast.SendStmt:
		held = w.expr(held, st.Chan)
		return w.expr(held, st.Value)
	case *ast.IncDecStmt:
		return w.expr(held, st.X)
	case *ast.LabeledStmt:
		return w.stmt(held, st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = w.expr(held, e)
					}
				}
			}
		}
		return held
	default:
		return held
	}
}

// branches evaluates each clause of a switch/select body from the same
// entry state and unions the results.
func (w *walker) branches(held []string, body *ast.BlockStmt) []string {
	out := copyOf(held)
	for _, clause := range body.List {
		out = union(out, w.stmt(copyOf(held), clause))
	}
	return out
}

// expr scans an expression for Lock/Unlock calls in evaluation order.
// Function literals are not entered: they execute later (Bodies walks them
// independently with an empty held set).
func (w *walker) expr(held []string, e ast.Expr) []string {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := checkutil.Callee(w.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		recv := checkutil.Receiver(w.pass.TypesInfo, call)
		if recv == nil || !isStripedLock(w.pass.TypesInfo.Types[recv].Type) {
			// Interprocedural step: consult the callee's lock summary.
			var lf LockFact
			if !w.pass.ImportObjectFact(fn.Origin(), &lf) {
				return true
			}
			if lf.RawLock && len(held) > 0 {
				w.pass.Reportf(call.Pos(),
					"call to %s, which takes a raw stripe lock, while stripe lock %s is held; cross-function two-lock sequences must go through LockPair (§4.4)",
					callgraph.DisplayName(fn), held[len(held)-1])
			}
			if lf.NetHeld {
				held = append(held, sentinelPrefix+fn.Name()+"()")
			}
			return true
		}
		// The lock type's own package implements LockPair/LockAll and is
		// the one place the ordering rule lives; exempt it.
		if fn.Pkg() == w.pass.Pkg {
			return true
		}
		key := types.ExprString(recv)
		switch fn.Name() {
		case "Lock":
			if len(held) > 0 {
				w.pass.Reportf(call.Pos(),
					"Stripe.Lock on %s while stripe lock %s is held; two stripes must be acquired via LockPair (ascending stripe order, §4.4)",
					key, held[len(held)-1])
			}
			held = append(held, key)
		case "Unlock", "UnlockPair", "UnlockAll", "UnlockOrdered":
			held = release(held, key)
		case "LockPair", "LockAll", "LockOrdered":
			if len(held) > 0 {
				w.pass.Reportf(call.Pos(),
					"%s on %s while stripe lock %s is held; release it first (§4.4)",
					fn.Name(), key, held[len(held)-1])
			}
			held = append(held, key)
		}
		return true
	})
	return held
}

func copyOf(held []string) []string {
	out := make([]string, len(held))
	copy(out, held)
	return out
}

func union(a, b []string) []string {
	out := copyOf(a)
	for _, k := range b {
		found := false
		for _, have := range out {
			if have == k {
				found = true
				break
			}
		}
		if !found {
			out = append(out, k)
		}
	}
	return out
}

// release drops the most recent hold of key; with no exact match it drops
// the most recent sentinel (an Unlock on the stripes a helper left locked).
func release(held []string, key string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == key {
			return append(held[:i], held[i+1:]...)
		}
	}
	for i := len(held) - 1; i >= 0; i-- {
		if strings.HasPrefix(held[i], sentinelPrefix) {
			return append(held[:i], held[i+1:]...)
		}
	}
	return held
}
