// Package allocfree proves hot-path roots allocation-free.
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
// Every method of a span-shaped type (Arm, Begin and End: the per-request
// tracing scratch, internal/obs.Span) is a root by its structure, with no
// annotation: a span sits on every request, so it must be free whether or
// not it is armed. Span methods carry one more rule, positional and not
// transitive: a call into package time must come after an early-return
// guard (an if statement that can return), the Begin/End idiom that keeps
// an unarmed span off the clock.
//
// //cuckoo:coldpath marks a deliberate slow path (BFS path search, table
// growth, eviction): the walk stops there, and the annotation is the
// audited promise that the function is off the per-operation fast path.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/callgraph"
	"cuckoohash/internal/analysis/checkutil"
)

// HotFact marks a proof root: a //cuckoo:hotpath function or a span
// method.
type HotFact struct {
	Note string
	Span bool
}

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
	Doc: "prove //cuckoo:hotpath roots and span methods allocation-free (§5 request path)\n\n" +
		"Walks the call graph from each root and reports any transitively\n" +
		"reachable heap allocation with its full call chain; span methods\n" +
		"must also read the clock only behind an early-return guard.",
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
	// The tracing scratch is recognized structurally: any type of this
	// package carrying the Arm/Begin/End triple.
	spans := make(map[*types.Named]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && checkutil.HasMethods(tn.Type(), "Arm", "Begin", "End") {
			spans[checkutil.NamedOf(tn.Type())] = true
		}
	}
	// Collect the roots; the proof itself runs in End, when every
	// package's summaries are in the fact store.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && fd.Body != nil && spans[checkutil.NamedOf(recv.Type())] {
				pass.ExportObjectFact(fn.Origin(), &HotFact{Span: true})
				clockAfterGuard(pass, fd)
			}
			if fd.Doc == nil {
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

// clockAfterGuard reports calls into package time that a span method
// makes before its first early-return guard (an if statement containing a
// return), in source order: the nil/unarmed check that makes the clock
// read conditional.
func clockAfterGuard(pass *analysis.Pass, fd *ast.FuncDecl) {
	for _, stmt := range fd.Body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := checkutil.Callee(pass.TypesInfo, call)
			if !checkutil.PkgPathIn(fn, "time") {
				return true
			}
			// Report the outermost time call only: time.Now().UnixNano()
			// is one clock read.
			pass.Reportf(call.Pos(),
				"span method %s reads the clock (time.%s) before an armed guard: unarmed spans must return without touching time.Now",
				fd.Name.Name, fn.Name())
			return false
		})
		if ifs, ok := stmt.(*ast.IfStmt); ok && returns(ifs) {
			return
		}
	}
}

// returns reports whether n contains a return statement.
func returns(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

func end(pass *analysis.Pass) error {
	roots := pass.AllObjectFacts(&HotFact{})
	sort.Slice(roots, func(i, j int) bool { return roots[i].Object.Pos() < roots[j].Object.Pos() })

	c := &checker{pass: pass}
	w := &callgraph.Walker{
		Pass: pass,
		Max:  20,
		Site: c.site,
		External: func(fn *types.Func) string {
			if p := fn.Pkg(); p != nil && cleanPkgs[p.Path()] || cleanFuncs[fn.FullName()] {
				return ""
			}
			return "call into unanalyzed " + fn.FullName()
		},
		Stop: func(fn *types.Func) bool { return pass.ImportObjectFact(fn, &ColdFact{}) },
		Foreign: func(m *types.Func) string {
			return "dynamic call through non-module interface method " + m.FullName()
		},
		Visible: c.reaches,
	}
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
		kind := "//cuckoo:hotpath root"
		if root.Fact.(*HotFact).Span {
			kind = "span method"
		}
		c.rootPkg, c.reachMemo = fn.Pkg(), make(map[*types.Package]bool)
		w.Start(fmt.Sprintf("from %s %s", kind, sum.Name))
		w.Walk(sum, []string{sum.Name})
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	rootPkg   *types.Package
	reachMemo map[*types.Package]bool
}

func (c *checker) site(sum *callgraph.Summary, s *callgraph.Site) string {
	if !s.Op.Allocates() || s.Op == callgraph.OpClosure && c.closureSafe(sum, s.Lit) {
		return ""
	}
	return fmt.Sprintf("%s (%s)", s.Op, s.What)
}

// reaches reports whether the root's package and p are on one import
// chain — the RTA visibility filter. A component cannot dispatch to an
// implementation it could never have constructed, one in a package
// neither it nor any of its importers reach; but a package that imports
// it can hand it one, an implementation of an interface it declares.
func (c *checker) reaches(p *types.Package) bool {
	if v, ok := c.reachMemo[p]; ok {
		return v
	}
	v := callgraph.Imports(c.rootPkg, p) || callgraph.Imports(p, c.rootPkg)
	c.reachMemo[p] = v
	return v
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
