// Package allocfree proves annotated hot-path roots allocation-free.
//
// The paper's request-path throughput (§5, Fig. 9) assumes GET and SET
// never touch the allocator: one heap allocation per operation caps the
// table at the collector's speed, not the hardware's. A function marked
//
//	//cuckoo:hotpath <note>
//
// is a proof root: walking its call-graph summary (package callgraph)
// transitively, every reachable operation must be allocation-free.
// make/new/append, closure allocation, map writes, string concatenation
// and conversions (outside the compiler's free map-lookup and ==
// positions), interface boxing, goroutine launches, and calls into
// unanalyzed (standard-library) functions off the known-clean list are
// all reported, with the full root → site call chain in the diagnostic.
//
// //cuckoo:coldpath marks a deliberate slow path (BFS path search, table
// growth, eviction): the walk stops there, and the annotation is the
// audited promise that the function is off the per-operation fast path.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/callgraph"
)

// HotFact marks a //cuckoo:hotpath proof root.
type HotFact struct{ Note string }

func (*HotFact) AFact() {}

// ColdFact marks a //cuckoo:coldpath walk stop.
type ColdFact struct{ Note string }

func (*ColdFact) AFact() {}

const (
	hotMarker  = "//cuckoo:hotpath"
	coldMarker = "//cuckoo:coldpath"
)

// Analyzer is the allocation-freedom prover.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "prove //cuckoo:hotpath roots allocation-free (§5 request path)\n\n" +
		"Walks the call graph from each annotated root and reports any\n" +
		"transitively reachable heap allocation with its full call chain.",
	Requires: []*analysis.Analyzer{callgraph.Analyzer},
	Run:      run,
	End:      end,
}

// cleanFuncs are standard-library functions known not to allocate,
// keyed by types.Func.FullName. Everything unlisted outside the module
// is conservatively may-allocate.
var cleanFuncs = map[string]bool{
	"time.Now":                    true,
	"(time.Time).UnixNano":        true,
	"(time.Time).Unix":            true,
	"(time.Time).Add":             true,
	"(time.Time).Sub":             true,
	"(time.Time).Before":          true,
	"(time.Time).After":           true,
	"(time.Time).IsZero":          true,
	"(time.Time).Equal":           true,
	"(time.Duration).Nanoseconds": true,
	"(time.Duration).Seconds":     true,
	"runtime.Gosched":             true,
	"runtime.KeepAlive":           true,
	"hash/maphash.String":         true,
	"hash/maphash.Bytes":          true,
	"hash/maphash.Comparable":     true,
	"hash/maphash.MakeSeed":       true,
	"errors.Is":                   true,
	"bytes.IndexByte":             true,
	// ParseInt/ParseUint allocate only the *NumError on malformed input;
	// the success path — the one a proof about steady-state traffic is
	// about — is allocation-free. FormatInt is deliberately absent: it
	// builds a new string on every call past the small-int cache.
	"strconv.ParseInt":            true,
	"strconv.ParseUint":           true,
	"(*bufio.Writer).Write":       true,
	"(*bufio.Writer).WriteString": true,
	"(*bufio.Writer).WriteByte":   true,
	"(*bufio.Writer).Available":   true,
	"(*bufio.Writer).Buffered":    true,
	"(*bufio.Writer).Flush":       true,
	"(*sync.Mutex).Lock":          true,
	"(*sync.Mutex).Unlock":        true,
	"(*sync.Mutex).TryLock":       true,
	"(*sync.RWMutex).Lock":        true,
	"(*sync.RWMutex).Unlock":      true,
	"(*sync.RWMutex).RLock":       true,
	"(*sync.RWMutex).RUnlock":     true,
}

// cleanPkgs are whole packages whose functions and methods never
// allocate.
var cleanPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

func run(pass *analysis.Pass) (any, error) {
	// Collect the annotations; the proof itself runs in End, when every
	// package's summaries are in the fact store.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			for _, c := range fd.Doc.List {
				if note, ok := markerNote(c.Text, hotMarker); ok {
					pass.ExportObjectFact(fn.Origin(), &HotFact{Note: note})
				}
				if note, ok := markerNote(c.Text, coldMarker); ok {
					pass.ExportObjectFact(fn.Origin(), &ColdFact{Note: note})
				}
			}
		}
	}
	return nil, nil
}

func markerNote(text, marker string) (string, bool) {
	if !strings.HasPrefix(text, marker) {
		return "", false
	}
	rest := strings.TrimPrefix(text, marker)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // some other //cuckoo:hotpathX word
	}
	return strings.TrimSpace(rest), true
}

func end(pass *analysis.Pass) error {
	roots := pass.AllObjectFacts(&HotFact{})
	sort.Slice(roots, func(i, j int) bool { return roots[i].Object.Pos() < roots[j].Object.Pos() })

	// Packages the analysis summarized: an interface method from any other
	// package is an unknown implementation space.
	modulePkgs := make(map[*types.Package]bool)
	for _, of := range pass.AllObjectFacts(&FuncFactProto) {
		if p := of.Object.Pkg(); p != nil {
			modulePkgs[p] = true
		}
	}

	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		fn, ok := root.Object.(*types.Func)
		if !ok {
			continue
		}
		sum := callgraph.Lookup(pass, fn)
		if sum == nil {
			pass.Reportf(fn.Pos(), "//cuckoo:hotpath root %s has no call-graph summary (no body?)", fn.Name())
			continue
		}
		c := &checker{
			pass:       pass,
			rootPkg:    fn.Pkg(),
			rootName:   sum.Name,
			modulePkgs: modulePkgs,
			onstack:    make(map[*callgraph.Summary]bool),
			reachMemo:  make(map[*types.Package]bool),
			reported:   reported,
		}
		c.walk(sum, nil, []string{sum.Name}, 0)
	}
	return nil
}

// FuncFactProto exists only to enumerate summarized packages.
var FuncFactProto callgraph.FuncFact

// maxOffenses caps diagnostics per root so one broken helper does not
// flood the report.
const maxOffenses = 20

// binding maps a callee's parameter index to the function values the
// caller passed, for substituting calls through function parameters.
type binding struct {
	vals map[int][]bound
}

type bound struct {
	fn  *types.Func
	lit *callgraph.Summary
}

type checker struct {
	pass       *analysis.Pass
	rootPkg    *types.Package
	rootName   string
	modulePkgs map[*types.Package]bool
	onstack    map[*callgraph.Summary]bool
	reachMemo  map[*types.Package]bool
	reported   map[token.Pos]bool
	count      int
}

func (c *checker) report(pos token.Pos, chain []string, format string, args ...any) {
	if c.count >= maxOffenses {
		return
	}
	c.count++
	if c.reported[pos] {
		return // another root already flagged this site
	}
	c.reported[pos] = true
	msg := fmt.Sprintf(format, args...)
	c.pass.Reportf(pos, "%s reachable from //cuckoo:hotpath root %s: %s",
		msg, c.rootName, strings.Join(chain, " -> "))
}

// reaches reports whether the root's package transitively imports p — the
// RTA visibility filter: a component cannot dispatch to an implementation
// it could never have constructed.
func (c *checker) reaches(p *types.Package) bool {
	if v, ok := c.reachMemo[p]; ok {
		return v
	}
	v := callgraph.Imports(c.rootPkg, p)
	c.reachMemo[p] = v
	return v
}

func (c *checker) walk(sum *callgraph.Summary, bind *binding, chain []string, depth int) {
	if depth > 100 || c.onstack[sum] || c.count >= maxOffenses {
		return
	}
	c.onstack[sum] = true
	defer delete(c.onstack, sum)

	for i := range sum.Sites {
		site := &sum.Sites[i]
		switch site.Op {
		case callgraph.OpChanSend, callgraph.OpChanRecv, callgraph.OpSelect:
			continue // blocking, not allocating: blockcheck's domain
		case callgraph.OpClosure:
			if c.closureSafe(sum, site.Lit) {
				continue
			}
		}
		c.report(site.Pos, chain, "%s (%s)", site.Op, site.What)
	}

	for i := range sum.Calls {
		call := &sum.Calls[i]
		if call.Go {
			continue // the launch is the OpGo site; the body runs elsewhere
		}
		c.walkCall(sum, call, bind, chain, depth)
	}
}

func (c *checker) walkCall(sum *callgraph.Summary, call *callgraph.Call, bind *binding, chain []string, depth int) {
	switch {
	case call.Callee != nil:
		c.walkCallee(call, call.Callee, bind, chain, depth)
	case call.Iface != nil:
		m := call.Iface
		if m.Pkg() != nil && !c.modulePkgs[m.Pkg()] {
			c.report(call.Pos, chain, "dynamic call through non-module interface method %s", m.FullName())
			return
		}
		impls := callgraph.Implementers(c.pass, m, c.reaches)
		for _, impl := range impls {
			c.walkCallee(call, impl, bind, chain, depth)
		}
	case call.Param >= 0:
		if bind == nil {
			return // unbound: the root's own contract covers its callers
		}
		for _, b := range bind.vals[call.Param] {
			if b.fn != nil {
				c.walkCallee(call, b.fn, bind, chain, depth)
			}
			if b.lit != nil {
				c.descend(call, b.lit, bind, chain, depth)
			}
		}
	case call.Field != nil:
		var ff callgraph.FieldFuncs
		if !c.pass.ImportObjectFact(call.Field, &ff) {
			return // never assigned in-module: nothing can be called
		}
		if ff.Opaque {
			c.report(call.Pos, chain, "call through field %s with unanalyzable stored values", call.Field.Name())
			return
		}
		for _, fn := range ff.Funcs {
			c.walkCallee(call, fn, bind, chain, depth)
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

func (c *checker) walkCallee(call *callgraph.Call, fn *types.Func, bind *binding, chain []string, depth int) {
	var cold ColdFact
	if c.pass.ImportObjectFact(fn, &cold) {
		return // audited slow path
	}
	callee := callgraph.Lookup(c.pass, fn)
	if callee == nil {
		if c.cleanExternal(fn) {
			return
		}
		c.report(call.Pos, chain, "call into unanalyzed %s", fn.FullName())
		return
	}
	c.descend(call, callee, bind, chain, depth)
}

// descend walks into a callee summary, building its parameter binding
// from the call's function-valued arguments. An argument that is itself
// one of the caller's parameters is resolved through the caller's own
// binding.
func (c *checker) descend(call *callgraph.Call, callee *callgraph.Summary, callerBind *binding, chain []string, depth int) {
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

// cleanExternal reports whether an unsummarized function is on the
// known-clean list.
func (c *checker) cleanExternal(fn *types.Func) bool {
	if p := fn.Pkg(); p != nil && cleanPkgs[p.Path()] {
		return true
	}
	return cleanFuncs[fn.FullName()]
}

// closureSafe reports whether a function literal never forces a heap
// allocation: it is only ever invoked directly, deferred, or handed to
// parameters that are themselves call-only all the way down.
func (c *checker) closureSafe(sum *callgraph.Summary, lit *callgraph.Summary) bool {
	if lit == nil {
		return false
	}
	for i := range sum.Calls {
		call := &sum.Calls[i]
		if call.Lit == lit {
			if call.Go {
				return false // go func(){...}(): the goroutine allocates
			}
			continue // immediately invoked or deferred: stack-allocated
		}
		for _, a := range call.Args {
			if a.Lit != lit {
				continue
			}
			if !c.paramCallOnly(call, a.Index, make(map[*callgraph.Summary]bool)) {
				return false
			}
		}
	}
	// References outside call positions were already classified by the
	// builder as part of the enclosing summary; a literal that is stored,
	// returned, or captured shows up with no justifying call edge. Verify
	// at least one edge consumed it.
	for i := range sum.Calls {
		call := &sum.Calls[i]
		if call.Lit == lit && !call.Go {
			return true
		}
		for _, a := range call.Args {
			if a.Lit == lit {
				return true
			}
		}
	}
	return false
}

// paramCallOnly reports whether the target parameter of call is only ever
// invoked (never stored or leaked), transitively through hand-offs.
func (c *checker) paramCallOnly(call *callgraph.Call, arg int, seen map[*callgraph.Summary]bool) bool {
	if call.Callee == nil {
		return false // interface, field, or dynamic target: assume it leaks
	}
	callee := callgraph.Lookup(c.pass, call.Callee)
	if callee == nil {
		return false // unsummarized (stdlib) consumer
	}
	if seen[callee] {
		return true
	}
	seen[callee] = true
	if arg >= len(callee.Params) {
		return false // variadic or mismatched: be conservative
	}
	p := callee.Params[arg]
	if p.Escapes {
		return false
	}
	for _, pass := range p.Passes {
		if !c.paramCallOnly(pass.Call, pass.Arg, seen) {
			return false
		}
	}
	return true
}
