// Package blockcheck proves critical sections free of blocking calls.
//
// Three region kinds must never park the goroutine, no matter how deep
// the call chain:
//
//   - spinlock critical sections: a waiter burns CPU for as long as the
//     holder is off the processor, so a holder that parks (mutex wait,
//     channel op, I/O, time.Sleep) turns the paper's short §4.4 stripe
//     holds into scheduler-scale stalls;
//   - seqlock read windows (§4.2): the window between Snapshot and
//     Validate is only cheap if it is a handful of loads — blocking
//     inside it guarantees version churn and retry storms;
//   - HTM transaction bodies (§5): on real TSX any syscall aborts the
//     transaction every single time.
//
// Regions are detected per function (including regions opened by helpers
// that return with stripes held, like lockAllGens), then checked
// transitively over the callgraph summaries, resolving interface calls
// against every module implementer. Function values passed to a callee
// that invokes them inside a region (txn.Store.WithLock's fn argument) are
// checked at each call site that supplies them.
//
// Blocking is a deny list: sync lock/wait primitives, channel operations
// and select, time.Sleep/After/Tick, and calls into I/O packages (os,
// net, io, bufio, syscall, log, fmt print/scan). runtime.Gosched — the
// spin loop's own yield — is explicitly fine, as are the spin locks
// themselves.
package blockcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/callgraph"
	"cuckoohash/internal/analysis/checkutil"
)

// A Region is one no-blocking proof obligation: the top-level statements
// of Sum between From and To.
type Region struct {
	Kind     string // human description, e.g. "spinlock critical section on s.locks"
	From, To token.Pos
	Sum      *callgraph.Summary
}

// RegionsFact carries a function's regions (including those of its
// nested literals) to the whole-program End pass.
type RegionsFact struct{ Regions []Region }

func (*RegionsFact) AFact() {}

// ParamRegion marks one parameter a function invokes inside a region.
type ParamRegion struct {
	Index int
	Kind  string
}

// ParamRegionFact lists the parameters of a function that are called
// with a region active — every caller's argument becomes a region.
type ParamRegionFact struct{ Params []ParamRegion }

func (*ParamRegionFact) AFact() {}

// NetAcquireFact marks a helper that returns with spin locks still held
// (lockAllGens): a call to it opens a region in the caller.
type NetAcquireFact struct{}

func (*NetAcquireFact) AFact() {}

// Analyzer is the no-blocking prover.
var Analyzer = &analysis.Analyzer{
	Name: "blockcheck",
	Doc: "prove spinlock/seqlock/HTM regions never block (§4.2, §4.4, §5)\n\n" +
		"No mutex wait, channel operation, select, sleep, or I/O call may\n" +
		"be transitively reachable from a spinlock critical section, a\n" +
		"Snapshot/Validate read window, or a transaction body.",
	Requires: []*analysis.Analyzer{callgraph.Analyzer},
	Run:      run,
	End:      end,
}

// isSpinLock recognizes busy-waiting lock providers structurally: the
// Lock/Unlock pair plus the Locked or LockPair surface of this module's
// spinlock types. sync.Mutex (Lock/Unlock/TryLock only) stays out — it
// parks, and parking on it is exactly what this analyzer reports.
func isSpinLock(t types.Type) bool {
	return checkutil.HasMethods(t, "Lock", "Unlock") &&
		(checkutil.HasMethods(t, "Locked") || checkutil.HasMethods(t, "LockPair"))
}

func isSeqlock(t types.Type) bool {
	return checkutil.HasMethods(t, "Snapshot", "Validate")
}

func isTxnType(t types.Type) bool {
	return checkutil.HasMethods(t, "Load", "Store", "Abort")
}

// definingPkg returns the package that declares t's named type.
func definingPkg(t types.Type) *types.Package {
	if n := checkutil.NamedOf(t); n != nil && n.Obj() != nil {
		return n.Obj().Pkg()
	}
	return nil
}

func run(pass *analysis.Pass) (any, error) {
	g, _ := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)
	if g == nil {
		return nil, nil
	}
	r := &runner{
		pass:   pass,
		g:      g,
		bodies: make(map[*types.Func]checkutil.FuncBody),
		encl:   make(map[*ast.FuncLit]*types.Func),
		net:    make(map[*types.Func]int), // 0 unknown, 1 computing, 2 done
	}
	var fbs []checkutil.FuncBody
	for _, f := range pass.Files {
		for _, fb := range checkutil.Bodies(f) {
			fbs = append(fbs, fb)
			if fb.Decl != nil {
				fn, _ := pass.TypesInfo.Defs[fb.Decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				r.bodies[fn] = fb
				lits := fb.Decl
				ast.Inspect(lits, func(n ast.Node) bool {
					if l, ok := n.(*ast.FuncLit); ok {
						r.encl[l] = fn
					}
					return true
				})
			}
		}
	}

	perFn := make(map[*types.Func]*RegionsFact)
	perFnParams := make(map[*types.Func]*ParamRegionFact)
	for _, fb := range fbs {
		var sum *callgraph.Summary
		var owner *types.Func
		if fb.Decl != nil {
			fn, _ := pass.TypesInfo.Defs[fb.Decl.Name].(*types.Func)
			if fn == nil {
				continue
			}
			owner, sum = fn, g.Funcs[fn]
		} else {
			owner, sum = r.encl[fb.Lit], g.Lits[fb.Lit]
		}
		if sum == nil || owner == nil {
			continue
		}
		regions := r.detect(fb, sum)
		if len(regions) == 0 {
			continue
		}
		rf := perFn[owner]
		if rf == nil {
			rf = &RegionsFact{}
			perFn[owner] = rf
		}
		rf.Regions = append(rf.Regions, regions...)
		// Parameters of this function invoked inside one of its regions.
		for _, reg := range regions {
			for i := range sum.Calls {
				call := &sum.Calls[i]
				if call.Param < 0 || call.Pos < reg.From || call.Pos > reg.To {
					continue
				}
				pf := perFnParams[owner]
				if pf == nil {
					pf = &ParamRegionFact{}
					perFnParams[owner] = pf
				}
				have := false
				for _, p := range pf.Params {
					if p.Index == call.Param {
						have = true
						break
					}
				}
				if !have {
					pf.Params = append(pf.Params, ParamRegion{Index: call.Param, Kind: reg.Kind})
				}
			}
		}
	}
	for fn, rf := range perFn {
		pass.ExportObjectFact(fn.Origin(), rf)
	}
	for fn, pf := range perFnParams {
		pass.ExportObjectFact(fn.Origin(), pf)
	}
	return nil, nil
}

type runner struct {
	pass   *analysis.Pass
	g      *callgraph.Graph
	bodies map[*types.Func]checkutil.FuncBody
	encl   map[*ast.FuncLit]*types.Func
	net    map[*types.Func]int
}

// netAcquires reports whether fn returns with spin locks held: a direct
// acquire surplus, counting deferred releases as releases and calls to
// other net-acquiring helpers as acquires.
func (r *runner) netAcquires(fn *types.Func) bool {
	fn = fn.Origin()
	var nf NetAcquireFact
	if r.pass.ImportObjectFact(fn, &nf) {
		return true
	}
	switch r.net[fn] {
	case 1: // cycle: assume balanced
		return false
	case 2:
		return false // computed, and no fact was exported
	}
	fb, ok := r.bodies[fn]
	if !ok {
		r.net[fn] = 2
		return false
	}
	r.net[fn] = 1
	acq, rel := 0, 0
	info := r.pass.TypesInfo
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv := checkutil.Receiver(info, call); recv != nil {
			t := info.Types[recv].Type
			if isSpinLock(t) && definingPkg(t) != r.pass.Pkg {
				switch checkutil.Callee(info, call).Name() {
				case "Lock", "LockPair", "LockOrdered", "LockAll":
					acq++
				case "Unlock", "UnlockPair", "UnlockOrdered", "UnlockAll":
					rel++
				}
			}
			return true
		}
		if callee := checkutil.Callee(info, call); callee != nil && r.netAcquires(callee) {
			acq++
		}
		return true
	})
	r.net[fn] = 2
	if acq > rel {
		r.pass.ExportObjectFact(fn, &NetAcquireFact{})
		return true
	}
	return false
}

// detect scans one function body linearly for regions.
func (r *runner) detect(fb checkutil.FuncBody, sum *callgraph.Summary) []Region {
	info := r.pass.TypesInfo
	var regions []Region

	// HTM: a body taking the transaction handle is one whole region.
	sig := signatureOf(r.pass, fb)
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			pt := sig.Params().At(i).Type()
			if isTxnType(pt) && definingPkg(pt) != r.pass.Pkg {
				regions = append(regions, Region{
					Kind: "HTM transaction body",
					From: fb.Body.Pos(), To: fb.Body.End(), Sum: sum,
				})
				break
			}
		}
	}

	type openReg struct {
		key      string
		from     token.Pos
		sentinel bool
	}
	var opens []openReg
	var snapFirst, valLast token.Pos

	closeAt := func(key string, pos token.Pos, kindFmt string) {
		idx := -1
		for i := len(opens) - 1; i >= 0; i-- {
			if opens[i].key == key {
				idx = i
				break
			}
		}
		if idx < 0 {
			for i := len(opens) - 1; i >= 0; i-- {
				if opens[i].sentinel {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return
		}
		o := opens[idx]
		opens = append(opens[:idx], opens[idx+1:]...)
		if o.from < pos {
			regions = append(regions, Region{
				Kind: fmt.Sprintf(kindFmt, o.key),
				From: o.from, To: pos, Sum: sum,
			})
		}
	}

	checkutil.WalkStack(fb.Body, func(n ast.Node, stack []ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // literals carry their own regions
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		deferred := false
		if len(stack) > 0 {
			_, deferred = stack[len(stack)-1].(*ast.DeferStmt)
		}
		recv := checkutil.Receiver(info, call)
		if recv == nil {
			if callee := checkutil.Callee(info, call); callee != nil && !deferred && r.netAcquires(callee) {
				opens = append(opens, openReg{
					key:      "locks held by " + callee.Name(),
					from:     call.End(),
					sentinel: true,
				})
			}
			return true
		}
		t := info.Types[recv].Type
		key := types.ExprString(recv)
		if isSpinLock(t) && definingPkg(t) != r.pass.Pkg {
			switch checkutil.Callee(info, call).Name() {
			case "Lock", "LockPair", "LockOrdered", "LockAll":
				if !deferred {
					opens = append(opens, openReg{key: key, from: call.End()})
				}
			case "Unlock", "UnlockPair", "UnlockOrdered", "UnlockAll":
				if !deferred {
					closeAt(key, call.Pos(), "spinlock critical section on %s")
				}
				// A deferred release closes at body end, below.
			}
		}
		if isSeqlock(t) && definingPkg(t) != r.pass.Pkg {
			switch checkutil.Callee(info, call).Name() {
			case "Snapshot":
				if !snapFirst.IsValid() {
					snapFirst = call.End()
				}
			case "Validate":
				valLast = call.Pos()
			}
		}
		return true
	})

	// Deferred releases and never-released acquires: region to body end.
	for _, o := range opens {
		if o.from < fb.Body.End() {
			regions = append(regions, Region{
				Kind: fmt.Sprintf("spinlock critical section on %s", o.key),
				From: o.from, To: fb.Body.End(), Sum: sum,
			})
		}
	}
	if snapFirst.IsValid() && valLast.IsValid() && snapFirst < valLast {
		regions = append(regions, Region{
			Kind: "seqlock read window",
			From: snapFirst, To: valLast, Sum: sum,
		})
	}
	return regions
}

func signatureOf(pass *analysis.Pass, fb checkutil.FuncBody) *types.Signature {
	if fb.Decl != nil {
		if fn, ok := pass.TypesInfo.Defs[fb.Decl.Name].(*types.Func); ok {
			return fn.Type().(*types.Signature)
		}
		return nil
	}
	if tv, ok := pass.TypesInfo.Types[fb.Lit]; ok {
		sig, _ := tv.Type.(*types.Signature)
		return sig
	}
	return nil
}

func end(pass *analysis.Pass) error {
	modulePkgs := make(map[*types.Package]bool)
	sums := pass.AllObjectFacts(&callgraph.FuncFact{})
	for _, of := range sums {
		if p := of.Object.Pkg(); p != nil {
			modulePkgs[p] = true
		}
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].Object.Pos() < sums[j].Object.Pos() })

	// Propagate "invokes its parameter inside a region" through parameter
	// hand-offs (a wrapper that passes fn through to WithLock) to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, of := range sums {
			sum := of.Fact.(*callgraph.FuncFact).S
			if sum.Fn == nil {
				continue
			}
			for i := range sum.Calls {
				call := &sum.Calls[i]
				if call.Callee == nil {
					continue
				}
				var prf ParamRegionFact
				if !pass.ImportObjectFact(call.Callee, &prf) {
					continue
				}
				for _, a := range call.Args {
					if a.Param < 0 {
						continue
					}
					kind, in := paramRegionKind(&prf, a.Index)
					if !in {
						continue
					}
					var own ParamRegionFact
					pass.ImportObjectFact(sum.Fn.Origin(), &own)
					if _, have := paramRegionKind(&own, a.Param); have {
						continue
					}
					own.Params = append(own.Params, ParamRegion{Index: a.Param, Kind: kind})
					pass.ExportObjectFact(sum.Fn.Origin(), &own)
					changed = true
				}
			}
		}
	}

	c := &rchecker{
		pass:       pass,
		modulePkgs: modulePkgs,
		reported:   make(map[token.Pos]bool),
		onstack:    make(map[*callgraph.Summary]bool),
	}

	// Declared regions.
	regions := pass.AllObjectFacts(&RegionsFact{})
	sort.Slice(regions, func(i, j int) bool { return regions[i].Object.Pos() < regions[j].Object.Pos() })
	for _, of := range regions {
		for _, reg := range of.Fact.(*RegionsFact).Regions {
			c.kind = reg.Kind
			c.count = 0
			c.walkRange(reg.Sum, reg.From, reg.To, nil, []string{reg.Sum.Name})
		}
	}

	// Function values handed to region-invoking parameters: each argument
	// is a region of its own at the supplying call site.
	for _, of := range sums {
		sum := of.Fact.(*callgraph.FuncFact).S
		for i := range sum.Calls {
			call := &sum.Calls[i]
			if call.Callee == nil {
				continue
			}
			var prf ParamRegionFact
			if !pass.ImportObjectFact(call.Callee, &prf) {
				continue
			}
			for _, a := range call.Args {
				kind, in := paramRegionKind(&prf, a.Index)
				if !in || (a.Fn == nil && a.Lit == nil) {
					continue
				}
				c.kind = fmt.Sprintf("%s (argument run by %s)", kind, callgraph.DisplayName(call.Callee))
				c.count = 0
				chain := []string{sum.Name}
				if a.Fn != nil {
					c.walkFunc(call, a.Fn, nil, chain, 0)
				}
				if a.Lit != nil {
					c.walk(a.Lit, nil, append(chain, a.Lit.Name), 1)
				}
			}
		}
	}
	return nil
}

func paramRegionKind(f *ParamRegionFact, idx int) (string, bool) {
	for _, p := range f.Params {
		if p.Index == idx {
			return p.Kind, true
		}
	}
	return "", false
}

// maxPerRegion caps diagnostics per region.
const maxPerRegion = 10

type rchecker struct {
	pass       *analysis.Pass
	modulePkgs map[*types.Package]bool
	reported   map[token.Pos]bool
	onstack    map[*callgraph.Summary]bool
	kind       string
	count      int
}

type binding struct{ vals map[int][]bound }

type bound struct {
	fn  *types.Func
	lit *callgraph.Summary
}

func (c *rchecker) report(pos token.Pos, chain []string, format string, args ...any) {
	if c.count >= maxPerRegion {
		return
	}
	c.count++
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	msg := fmt.Sprintf(format, args...)
	c.pass.Reportf(pos, "%s reachable inside %s: %s", msg, c.kind, strings.Join(chain, " -> "))
}

// walkRange checks only the top-level sites/calls of sum within
// [from, to]; everything reached from there is checked in full.
func (c *rchecker) walkRange(sum *callgraph.Summary, from, to token.Pos, bind *binding, chain []string) {
	c.onstack[sum] = true
	defer delete(c.onstack, sum)
	for i := range sum.Sites {
		site := &sum.Sites[i]
		if site.Pos < from || site.Pos > to {
			continue
		}
		c.site(site, chain)
	}
	for i := range sum.Calls {
		call := &sum.Calls[i]
		if call.Pos < from || call.Pos > to {
			continue
		}
		c.call(call, bind, chain, 0)
	}
}

func (c *rchecker) walk(sum *callgraph.Summary, bind *binding, chain []string, depth int) {
	if depth > 100 || c.onstack[sum] || c.count >= maxPerRegion {
		return
	}
	c.onstack[sum] = true
	defer delete(c.onstack, sum)
	for i := range sum.Sites {
		c.site(&sum.Sites[i], chain)
	}
	for i := range sum.Calls {
		c.call(&sum.Calls[i], bind, chain, depth)
	}
}

func (c *rchecker) site(site *callgraph.Site, chain []string) {
	if site.Op.Blocks() {
		c.report(site.Pos, chain, "%s", site.Op)
	}
}

func (c *rchecker) call(call *callgraph.Call, bind *binding, chain []string, depth int) {
	if call.Go {
		return // the spawned body runs outside the region
	}
	switch {
	case call.Callee != nil:
		c.walkFunc(call, call.Callee, bind, chain, depth)
	case call.Iface != nil:
		m := call.Iface
		if m.Pkg() != nil && !c.modulePkgs[m.Pkg()] {
			if checkutil.PkgPathIn(m, "io", "net", "os") {
				c.report(call.Pos, chain, "I/O interface call %s", m.FullName())
			}
			return // other foreign interfaces: assumed non-blocking
		}
		for _, impl := range callgraph.Implementers(c.pass, m, nil) {
			c.walkFunc(call, impl, bind, chain, depth)
		}
	case call.Param >= 0:
		if bind == nil {
			return // unbound: checked at each supplying call site
		}
		for _, b := range bind.vals[call.Param] {
			if b.fn != nil {
				c.walkFunc(call, b.fn, bind, chain, depth)
			}
			if b.lit != nil {
				c.descend(call, b.lit, bind, chain, depth)
			}
		}
	case call.Field != nil:
		var ff callgraph.FieldFuncs
		if !c.pass.ImportObjectFact(call.Field, &ff) {
			return
		}
		if ff.Opaque {
			c.report(call.Pos, chain, "call through field %s with unanalyzable stored values", call.Field.Name())
			return
		}
		for _, fn := range ff.Funcs {
			c.walkFunc(call, fn, bind, chain, depth)
		}
		for _, lit := range ff.Lits {
			c.descend(call, lit, bind, chain, depth)
		}
	case call.Lit != nil:
		c.descend(call, call.Lit, bind, chain, depth)
	case call.Unknown:
		c.report(call.Pos, chain, "unresolvable dynamic call")
	}
}

func (c *rchecker) walkFunc(call *callgraph.Call, fn *types.Func, bind *binding, chain []string, depth int) {
	callee := callgraph.Lookup(c.pass, fn)
	if callee == nil {
		if why, bad := blockingExternal(fn); bad {
			c.report(call.Pos, chain, "%s", why)
		}
		return
	}
	c.descend(call, callee, bind, chain, depth)
}

func (c *rchecker) descend(call *callgraph.Call, callee *callgraph.Summary, callerBind *binding, chain []string, depth int) {
	var bind *binding
	add := func(idx int, b bound) {
		if bind == nil {
			bind = &binding{vals: make(map[int][]bound)}
		}
		bind.vals[idx] = append(bind.vals[idx], b)
	}
	for _, a := range call.Args {
		switch {
		case a.Param >= 0:
			if callerBind != nil {
				for _, b := range callerBind.vals[a.Param] {
					add(a.Index, b)
				}
			}
		case a.Fn != nil:
			add(a.Index, bound{fn: a.Fn})
		case a.Lit != nil:
			add(a.Index, bound{lit: a.Lit})
		}
	}
	c.walk(callee, bind, append(chain[:len(chain):len(chain)], callee.Name), depth+1)
}

// blockingExternal classifies unsummarized (standard-library) callees.
// Deny list: lock waits, sleeps, and I/O. Everything else outside the
// list is assumed compute-only.
func blockingExternal(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	name := fn.Name()
	switch pkg.Path() {
	case "sync":
		switch name {
		case "Lock", "RLock", "Wait", "Do":
			return fmt.Sprintf("blocking sync call %s", fn.FullName()), true
		}
		return "", false
	case "time":
		switch name {
		case "Sleep", "After", "Tick":
			return fmt.Sprintf("blocking time call time.%s", name), true
		}
		return "", false
	case "runtime":
		return "", false // Gosched is the spin loop's own yield
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Scan") {
			return "I/O call fmt." + name, true
		}
		return "", false
	}
	if checkutil.PkgPathIn(fn, "os", "net", "io", "bufio", "syscall", "log") {
		return fmt.Sprintf("I/O call into %s", fn.FullName()), true
	}
	return "", false
}
