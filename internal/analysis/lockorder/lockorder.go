// Package lockorder flags two-lock sequences on striped bucket locks,
// including sequences split across function boundaries, and its held-lock
// walk is the one place cuckoovet learns which locks a statement runs
// under: blockcheck takes its spinlock regions from the walk's Result.
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
// The walk is branch-sensitive: a lock held on either arm of a branch is
// held after it, except on an arm that ends in return or panic, which
// does not reach the join; a deferred release holds to the end of the
// body. It tracks two kinds of entry. A stripe entry comes from a striped
// lock (Lock/Unlock/LockPair) and the ordering rule applies to it. A spin
// entry comes from any other busy-waiting lock (Lock/Unlock/Locked, like
// spinlock.Mutex) and only marks the code it covers as a critical section.
//
// The check is interprocedural: every function gets a lock summary from
// the callgraph — whether it (transitively, through static calls) takes a
// raw Stripe.Lock, and whether it returns with stripe locks still held
// (Table.lockAllGens). Calling a raw-locking function while a stripe lock
// is held is the same hand-ordered two-lock sequence, merely hidden
// behind a call; it is reported at the call site. A call to a function
// that returns holding locks pushes a sentinel stripe entry that the
// matching Unlock/UnlockOrdered, or a pure release helper, releases. A
// deferred or launched (go) call is not applied where it stands; only its
// arguments, evaluated there, are walked.
//
// Nesting across lock instances — one table's stripes held while
// another's are taken, as a transaction takes its shards' sections in
// shard order (internal/txn package doc) — is legal as long as each layer
// goes through LockPair/LockOrdered; only raw Lock propagates through
// summaries. Dynamic calls (interface methods, function values) are not
// followed: the held-set reasoning would cross object instances where the
// documented order, not the stripe-index rule, governs. Loops are walked once, so a lock
// carried into the next iteration, or out of the loop by break, is not
// seen there.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/callgraph"
	"cuckoohash/internal/analysis/checkutil"
)

// LockFact summarizes a function's striped-lock behavior for callers.
type LockFact struct {
	RawLock     bool // transitively performs a raw Stripe.Lock
	NetHeld     bool // returns with stripe locks held (lockAllGens)
	NetReleased bool // only releases stripe locks, which its caller took (core's unlockPair)
}

func (*LockFact) AFact() {}

// A Span is a source range of one function body that the walk covered
// with a lock held; Lock names the most recently acquired one.
type Span struct {
	From, To token.Pos
	Lock     string
}

// Result maps each function body of the package (declarations and
// literals alike) to its spans, in walk order.
type Result map[*ast.BlockStmt][]Span

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

// isSpinLock recognizes busy-waiting locks structurally: the Lock/Unlock
// pair plus the Locked or LockPair surface of this module's spinlock
// types. sync.Mutex (Lock/Unlock/TryLock only) stays out — it parks, and
// parking on it inside a spin lock is what blockcheck reports.
func isSpinLock(t types.Type) bool {
	return checkutil.HasMethods(t, "Lock", "Unlock") &&
		(checkutil.HasMethods(t, "Locked") || checkutil.HasMethods(t, "LockPair"))
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
	res := make(Result)
	for _, file := range pass.Files {
		for _, fb := range checkutil.Bodies(file) {
			w := &walker{pass: pass}
			w.block(nil, fb.Body.List)
			if len(w.spans) > 0 {
				res[fb.Body] = w.spans
			}
		}
	}
	return res, nil
}

// facts computes LockFact per function from callgraph summaries, with
// memoized recursion (cycles resolve to the empty fact).
type facts struct {
	pass  *analysis.Pass
	g     *callgraph.Graph
	state map[*types.Func]int // 1 = computing
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
		lf.RawLock = lf.RawLock || sub.RawLock
		if sub.NetHeld {
			acq++
		}
		if sub.NetReleased {
			rel++
		}
	}
	// A function that takes a lock and releases it on more than one path
	// (core.Table.Delete) releases nothing of its caller's: counting calls
	// cannot tell its paths apart, so only a pure release helper counts.
	lf.NetHeld, lf.NetReleased = acq > rel, acq == 0 && rel > 0
	c.done[fn] = lf
	if lf != (LockFact{}) {
		c.pass.ExportObjectFact(fn, &lf)
	}
	return lf
}

// entry is one held lock, keyed by the printed receiver expression so
// Lock/Unlock pairs on the same lock cancel out; a sentinel stands for
// the stripes a helper returned holding.
type entry struct {
	key    string
	stripe bool // a striped lock or a sentinel: the ordering rule applies
}

// walker tracks, in source order with branch-sensitive merging, which
// locks are held, and records the spans of the body it covers holding one.
type walker struct {
	pass  *analysis.Pass
	spans []Span
	gap   bool // code ran with no lock held, or a lock was released, since the last span began
}

// cover records that the code between from and to runs with held held,
// extending the last span when nothing unheld ran in between.
func (w *walker) cover(from, to token.Pos, held []entry) {
	if len(held) == 0 {
		w.gap = true
		return
	}
	key := held[len(held)-1].key
	if n := len(w.spans); n > 0 && !w.gap && w.spans[n-1].Lock == key && w.spans[n-1].To <= from {
		w.spans[n-1].To = to
		return
	}
	w.spans = append(w.spans, Span{From: from, To: to, Lock: key})
	w.gap = false
}

// block processes stmts sequentially, threading the held set through.
func (w *walker) block(held []entry, stmts []ast.Stmt) []entry {
	for _, s := range stmts {
		held = w.stmt(held, s)
	}
	return held
}

func (w *walker) stmt(held []entry, s ast.Stmt) []entry {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return w.block(held, st.List)
	case *ast.IfStmt:
		held = w.stmt(held, st.Init)
		held = w.expr(held, st.Cond)
		out := w.arm(nil, held, st.Body)
		if st.Else == nil {
			return union(out, held)
		}
		return w.arm(out, held, st.Else)
	case *ast.ForStmt:
		held = w.stmt(held, st.Init)
		held = w.expr(held, st.Cond)
		after := w.stmt(slices.Clone(held), st.Body)
		if st.Post != nil {
			after = w.stmt(after, st.Post)
			w.gap = true // Post precedes the body in the source: no span may run on across both
		}
		return union(held, after)
	case *ast.RangeStmt:
		w.cover(st.For, st.X.Pos(), held) // a range over a channel receives here
		held = w.expr(held, st.X)
		after := w.stmt(slices.Clone(held), st.Body)
		return union(held, after)
	case *ast.SwitchStmt:
		held = w.stmt(held, st.Init)
		held = w.expr(held, st.Tag)
		return w.branches(held, st.Body)
	case *ast.TypeSwitchStmt:
		held = w.stmt(held, st.Init)
		return w.branches(held, st.Body)
	case *ast.SelectStmt:
		w.cover(st.Select, st.Body.Lbrace, held)
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
		// does not license another raw Lock in the body, and the lock is
		// held to the end of it.
		return w.args(held, st.Pos(), st.Call)
	case *ast.GoStmt:
		// The call runs on another goroutine, which holds nothing of ours
		// and keeps what it takes.
		return w.args(held, st.Pos(), st.Call)
	case *ast.LabeledStmt:
		return w.stmt(held, st.Stmt)
	default:
		// A simple statement: its expressions in source order.
		return w.expr(held, st)
	}
}

// args skips a deferred or launched call but scans its arguments, which
// are evaluated now.
func (w *walker) args(held []entry, pos token.Pos, call *ast.CallExpr) []entry {
	w.cover(pos, call.Lparen, held)
	for _, arg := range call.Args {
		held = w.expr(held, arg)
	}
	return held
}

// arm walks one branch from held and joins what it leaves held into out,
// unless the branch ends in return or panic and so never reaches the join.
func (w *walker) arm(out, held []entry, s ast.Stmt) []entry {
	after := w.stmt(slices.Clone(held), s)
	if w.exits(s) {
		return out
	}
	return union(out, after)
}

// exits reports whether s always leaves the function: its last statement
// is a return or a panic.
func (w *walker) exits(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return len(st.List) > 0 && w.exits(st.List[len(st.List)-1])
	case *ast.CaseClause:
		return len(st.Body) > 0 && w.exits(st.Body[len(st.Body)-1])
	case *ast.CommClause:
		return len(st.Body) > 0 && w.exits(st.Body[len(st.Body)-1])
	case *ast.IfStmt:
		return st.Else != nil && w.exits(st.Body) && w.exits(st.Else)
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		return ok && checkutil.BuiltinName(w.pass.TypesInfo, call) == "panic"
	}
	return false
}

// branches evaluates each clause of a switch/select body from the same
// entry state and joins the results; without a default clause the entry
// state also reaches the join.
func (w *walker) branches(held []entry, body *ast.BlockStmt) []entry {
	var out []entry
	dflt := false
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			dflt = dflt || c.List == nil
		case *ast.CommClause:
			dflt = dflt || c.Comm == nil
		}
		out = w.arm(out, held, clause)
	}
	if !dflt {
		out = union(out, held)
	}
	return out
}

// expr scans an expression or a simple statement for Lock/Unlock calls in
// evaluation order, covering the code between them with the locks held
// there. Function literals are not entered: they execute later (Bodies
// walks them independently with an empty held set).
func (w *walker) expr(held []entry, e ast.Node) []entry {
	if e == nil {
		return held
	}
	from := e.Pos()
	var visit func(ast.Node) bool
	// turn covers the code up to call, which acquires add (a non-empty
	// key) or else releases drop, and restarts after it. The call's
	// arguments are evaluated before it acts, so they are scanned first
	// and covered with the set before; Inspect must not revisit them.
	turn := func(call *ast.CallExpr, add entry, drop string) bool {
		for _, arg := range call.Args {
			ast.Inspect(arg, visit)
		}
		w.cover(from, call.Rparen, held)
		from = call.End()
		if add.key != "" {
			held = append(held, add)
		} else {
			held, w.gap = release(held, drop), true
		}
		return false
	}
	visit = func(n ast.Node) bool {
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
		if recv == nil || !isSpinLock(w.pass.TypesInfo.Types[recv].Type) {
			// Interprocedural step: consult the callee's lock summary.
			var lf LockFact
			if !w.pass.ImportObjectFact(fn.Origin(), &lf) {
				return true
			}
			if top := topStripe(held); lf.RawLock && top != "" {
				w.pass.Reportf(call.Pos(),
					"call to %s, which takes a raw stripe lock, while stripe lock %s is held; cross-function two-lock sequences must go through LockPair (§4.4)",
					callgraph.DisplayName(fn), top)
			}
			switch {
			case lf.NetHeld:
				return turn(call, entry{key: sentinelPrefix + fn.Name() + "()", stripe: true}, "")
			case lf.NetReleased:
				return turn(call, entry{}, "")
			}
			return true
		}
		// The lock type's own package implements LockPair/LockAll and is
		// the one place the ordering rule lives; exempt it.
		if fn.Pkg() == w.pass.Pkg {
			return true
		}
		key := types.ExprString(recv)
		stripe := isStripedLock(w.pass.TypesInfo.Types[recv].Type)
		switch top := topStripe(held); fn.Name() {
		case "Lock":
			if stripe && top != "" {
				w.pass.Reportf(call.Pos(),
					"Stripe.Lock on %s while stripe lock %s is held; two stripes must be acquired via LockPair (ascending stripe order, §4.4)",
					key, top)
			}
			return turn(call, entry{key: key, stripe: stripe}, "")
		case "Unlock", "UnlockPair", "UnlockAll", "UnlockOrdered":
			return turn(call, entry{}, key)
		case "LockPair", "LockAll", "LockOrdered":
			if top != "" {
				w.pass.Reportf(call.Pos(),
					"%s on %s while stripe lock %s is held; release it first (§4.4)",
					fn.Name(), key, top)
			}
			return turn(call, entry{key: key, stripe: stripe}, "")
		}
		return true
	}
	ast.Inspect(e, visit)
	w.cover(from, e.End(), held)
	return held
}

// topStripe names the most recently acquired stripe entry, or "".
func topStripe(held []entry) string {
	if i := last(held, func(e entry) bool { return e.stripe }); i >= 0 {
		return held[i].key
	}
	return ""
}

// last is the index of the most recent entry ok accepts, or -1.
func last(held []entry, ok func(entry) bool) int {
	for i := len(held) - 1; i >= 0; i-- {
		if ok(held[i]) {
			return i
		}
	}
	return -1
}

func union(a, b []entry) []entry {
	out := slices.Clone(a)
	for _, k := range b {
		if !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// release drops the most recent hold of key; with no exact match it drops
// the most recent sentinel (an Unlock on the stripes a helper left locked).
func release(held []entry, key string) []entry {
	i := last(held, func(e entry) bool { return e.key == key })
	if i < 0 {
		i = last(held, func(e entry) bool { return strings.HasPrefix(e.key, sentinelPrefix) })
	}
	if i < 0 {
		return held
	}
	return slices.Delete(held, i, i+1)
}
