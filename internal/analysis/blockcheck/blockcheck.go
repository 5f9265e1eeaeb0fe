// Package blockcheck proves critical sections free of blocking calls, and
// transaction bodies free of effects that cannot roll back.
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
// A transaction body is held to more. §5 moves the insert critical
// section into a transaction, and the design depends on the body being a
// handful of undo-loggable word reads and writes: allocation, map writes
// and deletes, goroutine launches, defer, panic, channel close, and calls
// into time, math/rand, runtime, sync and the I/O packages touch state no
// undo log covers, so they are reported too. A transaction body is any
// function or literal taking a handle (a type with Load, Store and Abort)
// declared in another package; the walk stops at that package, which
// implements the transaction machinery.
//
// Regions are detected per function. A spinlock critical section is each
// source range lockorder's branch-sensitive held-lock walk covers while it
// holds a spin-shaped lock or the stripes a helper returned holding (like
// lockAllGens), so a release on an early-exit branch does not end the
// region on the path that falls through. Regions are then checked
// transitively over the callgraph summaries,
// resolving interface calls against every module implementer. Function
// values passed to a callee that invokes them inside a region
// (generic.Table.Update's decide argument) are checked at each call site
// that supplies them, in a declared function or in any literal nested in
// one.
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
	"cuckoohash/internal/analysis/lockorder"
)

// A Region is one proof obligation: the sites and calls of Sum between
// From and To.
type Region struct {
	Kind     string         // human description, e.g. "spinlock critical section on s.locks"
	Txn      *types.Package // transaction bodies: the handle's package, where the walk stops
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
	Txn   *types.Package
}

// ParamRegionFact lists the parameters of a function that are called
// with a region active — every caller's argument becomes a region.
type ParamRegionFact struct{ Params []ParamRegion }

func (*ParamRegionFact) AFact() {}

// Analyzer is the no-blocking prover.
var Analyzer = &analysis.Analyzer{
	Name: "blockcheck",
	Doc: "prove spinlock/seqlock/HTM regions never block, and HTM bodies roll back (§4.2, §4.4, §5)\n\n" +
		"No mutex wait, channel operation, select, sleep, or I/O call may\n" +
		"be transitively reachable from a spinlock critical section, a\n" +
		"Snapshot/Validate read window, or a transaction body; nor may\n" +
		"allocation, map writes, goroutines, defer, panic or effectful\n" +
		"library calls be reachable from a transaction body.",
	Requires: []*analysis.Analyzer{callgraph.Analyzer, lockorder.Analyzer},
	Run:      run,
	End:      end,
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
	held, _ := pass.ResultOf[lockorder.Analyzer].(lockorder.Result)
	perFn := make(map[*types.Func]*RegionsFact)
	perFnParams := make(map[*types.Func]*ParamRegionFact)
	for _, f := range pass.Files {
		// Bodies yields a declaration before the literals nested in it.
		var decl *ast.FuncDecl
		var owner *types.Func
		for _, fb := range checkutil.Bodies(f) {
			sum := g.Lits[fb.Lit]
			if fb.Decl != nil {
				decl, owner = fb.Decl, nil
				if fn, ok := pass.TypesInfo.Defs[fb.Decl.Name].(*types.Func); ok {
					owner, sum = fn, g.Funcs[fn]
				}
			} else if decl == nil || fb.Lit.Pos() > decl.End() {
				continue // a package-level literal has no owner to carry its facts
			}
			if sum == nil || owner == nil {
				continue
			}
			regions := detect(pass, fb, sum, held[fb.Body])
			if len(regions) == 0 {
				continue
			}
			rf := perFn[owner]
			if rf == nil {
				rf = &RegionsFact{}
				perFn[owner] = rf
			}
			rf.Regions = append(rf.Regions, regions...)
			// Parameters of this function invoked inside one of its regions,
			// or of its literals' (a literal's own parameters are not its
			// owner's).
			for _, reg := range regions {
				for i := range sum.Calls {
					call := &sum.Calls[i]
					if call.Param < 0 || call.ParamOf != g.Funcs[owner] || call.Pos < reg.From || call.Pos > reg.To {
						continue
					}
					pf := perFnParams[owner]
					if pf == nil {
						pf = &ParamRegionFact{}
						perFnParams[owner] = pf
					}
					if _, have := paramRegion(pf, call.Param); !have {
						pf.Params = append(pf.Params, ParamRegion{Index: call.Param, Kind: reg.Kind, Txn: reg.Txn})
					}
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

// detect lists one function body's regions: a transaction body whole,
// each span the lockorder walk covered holding a lock, and the window
// from the first Snapshot to the last Validate of a seqlock.
func detect(pass *analysis.Pass, fb checkutil.FuncBody, sum *callgraph.Summary, spans []lockorder.Span) []Region {
	info := pass.TypesInfo
	var regions []Region

	// HTM: a body taking the transaction handle is one whole region.
	var sig *types.Signature
	if sum.Fn != nil {
		sig = sum.Fn.Type().(*types.Signature)
	} else {
		sig, _ = info.TypeOf(fb.Lit).(*types.Signature)
	}
	for i := 0; sig != nil && i < sig.Params().Len(); i++ {
		pt := sig.Params().At(i).Type()
		if p := definingPkg(pt); isTxnType(pt) && p != nil && p != pass.Pkg {
			regions = append(regions, Region{
				Kind: "HTM transaction body", Txn: p,
				From: fb.Body.Pos(), To: fb.Body.End(), Sum: sum,
			})
			break
		}
	}

	for _, sp := range spans {
		if sp.From < sp.To {
			regions = append(regions, Region{
				Kind: "spinlock critical section on " + sp.Lock,
				From: sp.From, To: sp.To, Sum: sum,
			})
		}
	}

	var snapFirst, valLast token.Pos
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // literals carry their own regions
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv := checkutil.Receiver(info, call)
		if recv == nil {
			return true
		}
		if t := info.Types[recv].Type; isSeqlock(t) && definingPkg(t) != pass.Pkg {
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
	if snapFirst.IsValid() && valLast.IsValid() && snapFirst < valLast {
		regions = append(regions, Region{
			Kind: "seqlock read window",
			From: snapFirst, To: valLast, Sum: sum,
		})
	}
	return regions
}

func end(pass *analysis.Pass) error {
	sums := pass.AllObjectFacts(&callgraph.FuncFact{})
	sort.Slice(sums, func(i, j int) bool { return sums[i].Object.Pos() < sums[j].Object.Pos() })

	// Propagate "invokes its parameter inside a region" through parameter
	// hand-offs (a wrapper that passes fn on to a region-invoking callee)
	// to a fixpoint.
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
					p, in := paramRegion(&prf, a.Index)
					if !in {
						continue
					}
					var own ParamRegionFact
					pass.ImportObjectFact(sum.Fn.Origin(), &own)
					if _, have := paramRegion(&own, a.Param); have {
						continue
					}
					p.Index = a.Param
					own.Params = append(own.Params, p)
					pass.ExportObjectFact(sum.Fn.Origin(), &own)
					changed = true
				}
			}
		}
	}

	w := &callgraph.Walker{
		Pass: pass,
		Max:  10,
		Foreign: func(m *types.Func) string {
			if checkutil.PkgPathIn(m, "io", "net", "os") {
				return "I/O interface call " + m.FullName()
			}
			return "" // other foreign interfaces: assumed non-blocking
		},
	}
	start := func(kind string, txn *types.Package) {
		w.Site, w.External, w.Stop = blockingSite, blockingExternal, nil
		if txn != nil {
			w.Site, w.External = txnSite, txnExternal
			w.Stop = func(fn *types.Func) bool { return fn.Pkg() == txn }
		}
		w.Start("inside " + kind)
	}

	// Declared regions.
	regions := pass.AllObjectFacts(&RegionsFact{})
	sort.Slice(regions, func(i, j int) bool { return regions[i].Object.Pos() < regions[j].Object.Pos() })
	for _, of := range regions {
		for _, reg := range of.Fact.(*RegionsFact).Regions {
			start(reg.Kind, reg.Txn)
			w.WalkRange(reg.Sum, reg.From, reg.To, []string{reg.Sum.Name})
		}
	}

	// Function values handed to region-invoking parameters: each argument
	// is a region of its own at the supplying call site, whether the site
	// is in a declared function or in a literal nested in one (a write
	// wrapped in an evict-and-retry literal hands the table its decision
	// from there).
	var args func(sum *callgraph.Summary, chain []string)
	args = func(sum *callgraph.Summary, chain []string) {
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
				p, in := paramRegion(&prf, a.Index)
				if !in || (a.Fn == nil && a.Lit == nil) {
					continue
				}
				start(fmt.Sprintf("%s (argument run by %s)", p.Kind, callgraph.DisplayName(call.Callee)), p.Txn)
				if a.Fn != nil {
					w.WalkCallee(call, a.Fn, chain)
				}
				if a.Lit != nil {
					w.Walk(a.Lit, append(chain[:len(chain):len(chain)], a.Lit.Name))
				}
			}
		}
		for _, site := range sum.Sites {
			if site.Op == callgraph.OpClosure && site.Lit != nil {
				args(site.Lit, append(chain[:len(chain):len(chain)], site.Lit.Name))
			}
		}
	}
	for _, of := range sums {
		sum := of.Fact.(*callgraph.FuncFact).S
		args(sum, []string{sum.Name})
	}
	return nil
}

func paramRegion(f *ParamRegionFact, idx int) (ParamRegion, bool) {
	for _, p := range f.Params {
		if p.Index == idx {
			return p, true
		}
	}
	return ParamRegion{}, false
}

func blockingSite(_ *callgraph.Summary, s *callgraph.Site) string {
	if s.Op.Blocks() {
		return s.Op.String()
	}
	return ""
}

// txnSite reports every operation a transaction body cannot undo: all of
// them but a closure, which the body may build to call in place.
func txnSite(_ *callgraph.Summary, s *callgraph.Site) string {
	if s.Op == callgraph.OpClosure {
		return ""
	}
	return s.Op.String()
}

// blockingExternal classifies unsummarized (standard-library) callees.
// Deny list: lock waits, sleeps, and I/O. Everything else outside the
// list is assumed compute-only.
func blockingExternal(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	name := fn.Name()
	switch pkg.Path() {
	case "sync":
		switch name {
		case "Lock", "RLock", "Wait", "Do":
			return "blocking sync call " + fn.FullName()
		}
		return ""
	case "time":
		switch name {
		case "Sleep", "After", "Tick":
			return "blocking time call time." + name
		}
		return ""
	case "runtime":
		return "" // Gosched is the spin loop's own yield
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Scan") {
			return "I/O call fmt." + name
		}
		return ""
	}
	if checkutil.PkgPathIn(fn, "os", "net", "io", "bufio", "syscall", "log") {
		return "I/O call into " + fn.FullName()
	}
	return ""
}

// txnExternal adds to the blocking calls every call a transaction body
// cannot undo: the clock, random state, the runtime, sync (atomics
// included) and formatting.
func txnExternal(fn *types.Func) string {
	if why := blockingExternal(fn); why != "" {
		return why
	}
	if checkutil.PkgPathIn(fn, "fmt", "time", "math/rand", "runtime", "sync") {
		return "non-transactional call into " + fn.FullName()
	}
	return ""
}
