package callgraph

import (
	"fmt"
	"go/token"
	"go/types"
	"math"
	"strings"

	"cuckoohash/internal/analysis"
)

// A Walker checks everything transitively reachable from a proof root or
// a region over the summaries: allocfree and blockcheck each configure one
// and differ only in the hooks. Calls launched with `go` are never
// followed (the body runs elsewhere; the launch itself is an OpGo site).
type Walker struct {
	Pass *analysis.Pass
	// Max caps the findings of one root or region, so one broken helper
	// does not flood the report. Only new positions count: a site already
	// reported, reached again by another chain, does not use up the cap
	// and hide a later site of the same region.
	Max int
	// Site returns the finding for one operation of sum, or "".
	Site func(sum *Summary, s *Site) string
	// External returns the finding for a call into an unsummarized
	// (standard-library) function, or "".
	External func(fn *types.Func) string
	// Stop reports whether the walk ends at fn without entering it.
	Stop func(fn *types.Func) bool
	// Foreign returns the finding for a call through an interface method
	// declared outside the module, or "". Such calls are never followed.
	Foreign func(m *types.Func) string
	// Visible limits interface dispatch to implementers whose package it
	// accepts; nil accepts every module type.
	Visible func(*types.Package) bool

	context    string
	count      int
	modulePkgs map[*types.Package]bool
	onstack    map[*Summary]binding // what each summary on the walk was called with
	reported   map[token.Pos]bool
}

// binding maps a callee's parameter index to the function values its
// caller passed, so calls through function parameters resolve.
type binding map[int][]bound

type bound struct {
	fn  *types.Func
	lit *Summary
}

// Start begins a new root or region. context says where every finding is
// reachable from ("from //cuckoo:hotpath root X", "inside ...").
func (w *Walker) Start(context string) {
	if w.reported == nil {
		w.modulePkgs = make(map[*types.Package]bool)
		for _, of := range w.Pass.AllObjectFacts(&FuncFact{}) {
			if p := of.Object.Pkg(); p != nil {
				w.modulePkgs[p] = true
			}
		}
		w.onstack = make(map[*Summary]binding)
		w.reported = make(map[token.Pos]bool)
	}
	w.context, w.count = context, 0
}

// Report files one finding with the call chain that reaches it. A
// position is reported once across all roots and regions.
func (w *Walker) Report(pos token.Pos, chain []string, format string, args ...any) {
	if w.count >= w.Max || w.reported[pos] {
		return
	}
	w.count++
	w.reported[pos] = true
	w.Pass.Reportf(pos, "%s reachable %s: %s", fmt.Sprintf(format, args...), w.context, strings.Join(chain, " -> "))
}

// Walk checks sum and everything it reaches.
func (w *Walker) Walk(sum *Summary, chain []string) { w.walk(sum, nil, chain, 0) }

// WalkRange checks the sites and calls of sum between from and to, and
// everything those calls reach.
func (w *Walker) WalkRange(sum *Summary, from, to token.Pos, chain []string) {
	w.body(sum, from, to, nil, chain, 0)
}

// WalkCallee checks fn as called by call.
func (w *Walker) WalkCallee(call *Call, fn *types.Func, chain []string) {
	w.callee(call, fn, nil, chain, 0)
}

func (w *Walker) walk(sum *Summary, bind binding, chain []string, depth int) {
	if _, on := w.onstack[sum]; on || depth > 100 || w.count >= w.Max {
		return
	}
	w.body(sum, 0, math.MaxInt, bind, chain, depth)
}

func (w *Walker) body(sum *Summary, from, to token.Pos, bind binding, chain []string, depth int) {
	w.onstack[sum] = bind
	defer delete(w.onstack, sum)
	for i := range sum.Sites {
		s := &sum.Sites[i]
		if s.Pos < from || s.Pos > to {
			continue
		}
		if msg := w.Site(sum, s); msg != "" {
			w.Report(s.Pos, chain, "%s", msg)
		}
	}
	for i := range sum.Calls {
		call := &sum.Calls[i]
		if call.Go || call.Pos < from || call.Pos > to {
			continue
		}
		w.call(call, bind, chain, depth)
	}
}

func (w *Walker) call(call *Call, bind binding, chain []string, depth int) {
	switch {
	case call.Callee != nil:
		w.callee(call, call.Callee, bind, chain, depth)
	case call.Iface != nil:
		m := call.Iface
		if m.Pkg() != nil && !w.modulePkgs[m.Pkg()] {
			if msg := w.Foreign(m); msg != "" {
				w.Report(call.Pos, chain, "%s", msg)
			}
			return
		}
		for _, impl := range Implementers(w.Pass, m, w.Visible) {
			w.callee(call, impl, bind, chain, depth)
		}
	case call.Param >= 0:
		// Bound by what the parameter's function was called with — for a
		// literal calling a parameter of a function around it, when the
		// walk came through that function. Unbound at a root or region, or
		// where the literal was reached some other way: its callers'
		// contract covers it (a literal passed on hands the parameter on).
		for _, b := range w.onstack[call.ParamOf][call.Param] {
			if b.fn != nil {
				w.callee(call, b.fn, bind, chain, depth)
			}
			if b.lit != nil {
				w.descend(call, b.lit, bind, chain, depth)
			}
		}
	case call.Field != nil:
		var ff FieldFuncs
		if !w.Pass.ImportObjectFact(call.Field, &ff) {
			return // never assigned in-module: nothing can be called
		}
		if ff.Opaque {
			w.Report(call.Pos, chain, "call through field %s with unanalyzable stored values", call.Field.Name())
			return
		}
		for _, fn := range ff.Funcs {
			w.callee(call, fn, bind, chain, depth)
		}
		for _, lit := range ff.Lits {
			w.descend(call, lit, bind, chain, depth)
		}
	case call.Lit != nil:
		w.descend(call, call.Lit, bind, chain, depth)
	case call.Unknown:
		w.Report(call.Pos, chain, "unresolvable dynamic call")
	}
}

func (w *Walker) callee(call *Call, fn *types.Func, bind binding, chain []string, depth int) {
	if w.Stop != nil && w.Stop(fn) {
		return
	}
	sum := Lookup(w.Pass, fn)
	if sum == nil {
		if msg := w.External(fn); msg != "" {
			w.Report(call.Pos, chain, "%s", msg)
		}
		return
	}
	w.descend(call, sum, bind, chain, depth)
}

// descend walks into a callee, binding its parameters to the call's
// function-valued arguments; an argument that is one of the caller's own
// parameters resolves through the caller's binding.
func (w *Walker) descend(call *Call, callee *Summary, callerBind binding, chain []string, depth int) {
	var bind binding
	if len(call.Args) > 0 {
		bind = make(binding)
	}
	for _, a := range call.Args {
		switch {
		case a.Param >= 0:
			bind[a.Index] = append(bind[a.Index], callerBind[a.Param]...)
		case a.Fn != nil:
			bind[a.Index] = append(bind[a.Index], bound{fn: a.Fn})
		case a.Lit != nil:
			bind[a.Index] = append(bind[a.Index], bound{lit: a.Lit})
		}
	}
	w.walk(callee, bind, append(chain[:len(chain):len(chain)], callee.Name), depth+1)
}
