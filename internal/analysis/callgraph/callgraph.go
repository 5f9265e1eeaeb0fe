// Package callgraph builds the interprocedural layer of the cuckoovet
// suite: a per-function summary of allocation-relevant operations and
// outgoing calls, exported as object facts over the driver's single shared
// go/types universe so later packages (and whole-program End hooks) can
// walk the call graph bottom-up.
//
// Call edges are resolved RTA-style: static calls (including instantiated
// generics, normalized to their Origin declaration) resolve directly;
// interface calls carry the abstract method and are resolved by consumers
// against the set of module-defined implementers (exported here as type
// facts); calls through function-typed parameters carry the parameter
// index so a caller's argument can be substituted; calls through
// function-typed struct fields resolve to every function value the module
// ever stores into that field. Anything else is an unknown dynamic call,
// which consumers treat conservatively. The one transitive walk over the
// summaries, which allocfree and blockcheck configure, is Walker.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/checkutil"
)

// OpKind classifies one allocation-, blocking- or rollback-relevant
// operation.
type OpKind uint8

const (
	OpMake     OpKind = iota // make() or map/slice composite literal
	OpNew                    // new() or &CompositeLit
	OpAppend                 // append()
	OpClosure                // function literal (may heap-allocate its closure)
	OpMapWrite               // m[k] = v
	OpConcat                 // string concatenation
	OpStrConv                // string<->[]byte conversion outside exempt positions
	OpBox                    // explicit conversion of a non-pointer value to an interface
	OpGo                     // goroutine launch
	OpChanSend               // ch <- v
	OpChanRecv               // <-ch
	OpSelect                 // select statement
	OpPrint                  // print()/println()
	OpDefer                  // defer statement
	OpPanic                  // panic()
	OpClose                  // close()
	OpDelete                 // delete()
)

// builtinOps are the built-in calls that are sites; the rest (len, copy,
// min, package unsafe's, ...) are neither sites nor call edges.
var builtinOps = map[string]OpKind{
	"make": OpMake, "new": OpNew, "append": OpAppend, "print": OpPrint, "println": OpPrint,
	"panic": OpPanic, "close": OpClose, "delete": OpDelete,
}

func (k OpKind) String() string {
	switch k {
	case OpMake:
		return "allocation (make)"
	case OpNew:
		return "allocation (new)"
	case OpAppend:
		return "allocation (append)"
	case OpClosure:
		return "closure allocation"
	case OpMapWrite:
		return "map write"
	case OpConcat:
		return "string concatenation"
	case OpStrConv:
		return "string conversion"
	case OpBox:
		return "interface boxing"
	case OpGo:
		return "goroutine launch"
	case OpChanSend:
		return "channel send"
	case OpChanRecv:
		return "channel receive"
	case OpSelect:
		return "select"
	case OpPrint:
		return "I/O (print)"
	case OpDefer:
		return "defer"
	case OpPanic:
		return "panic"
	case OpClose:
		return "channel close"
	case OpDelete:
		return "map delete"
	}
	return "operation"
}

// Allocates reports whether the operation can heap-allocate (the
// allocfree axis; OpGo is both an allocation and a scheduler call).
func (k OpKind) Allocates() bool { return k <= OpGo }

// Blocks reports whether the operation can park the goroutine (the
// blockcheck axis).
func (k OpKind) Blocks() bool { return k >= OpChanSend && k <= OpPrint }

// A Site is one operation of interest inside a function body.
type Site struct {
	Pos  token.Pos
	Op   OpKind
	What string   // short operand description for diagnostics
	Lit  *Summary // for OpClosure: the literal's own summary
}

// A Call is one outgoing call edge.
type Call struct {
	Pos      token.Pos
	Callee   *types.Func // static callee (Origin-normalized); nil otherwise
	RecvType types.Type  // static receiver type for method calls
	Iface    *types.Func // interface method for dynamic dispatch
	Field    *types.Var  // func-typed struct field being invoked
	Param    int         // index of the enclosing function's parameter being invoked; -1 otherwise
	Lit      *Summary    // directly-invoked function literal
	Unknown  bool        // unresolvable dynamic call
	Go       bool        // launched with `go`
	Deferred bool
	Args     []ArgVal // function-valued arguments, with their positions
}

// ArgVal is one function-valued argument of a call: a static function
// (Origin-normalized), a literal, or a hand-off of the enclosing
// function's own parameter (Param >= 0).
type ArgVal struct {
	Index int // argument position = callee parameter index
	Fn    *types.Func
	Lit   *Summary
	Param int // -1 unless this argument is the enclosing function's parameter
}

// ParamUse records how one parameter of a function is used, for the
// closure-escape reasoning in allocfree: a function-typed parameter that
// is only ever invoked (or passed on to another call-only parameter)
// never forces its argument literal onto the heap.
type ParamUse struct {
	Escapes bool // used other than as call.Fun, a call argument, or a nil comparison
	Passes  []ParamPass
}

// ParamPass is one hand-off of a parameter as an argument to another call.
type ParamPass struct {
	Call *Call
	Arg  int
}

// A Summary is the callgraph's per-function digest.
type Summary struct {
	Fn     *types.Func // nil for function literals
	Name   string      // display name for diagnostics
	Pos    token.Pos
	Sites  []Site
	Calls  []Call
	Params []ParamUse // indexed by parameter position
}

// FuncFact attaches a function's summary to its (Origin) types.Func.
type FuncFact struct{ S *Summary }

func (*FuncFact) AFact() {}

// TypeFact marks a module-defined named type that carries methods: the
// RTA candidate set for interface-call resolution.
type TypeFact struct{ Named *types.Named }

func (*TypeFact) AFact() {}

// FieldFuncs accumulates, on a func-typed struct field, every function
// value the module stores into that field (composite literals and
// assignments). Unresolvable stores set Opaque.
type FieldFuncs struct {
	Funcs  []*types.Func
	Lits   []*Summary
	Opaque bool
}

func (*FieldFuncs) AFact() {}

// Graph is the per-package result: summaries for this package's declared
// functions and literals, for same-package consumers that need AST-level
// association (the blockcheck region scanner).
type Graph struct {
	Funcs map[*types.Func]*Summary
	Lits  map[*ast.FuncLit]*Summary
}

// Analyzer builds per-function call/allocation summaries.
var Analyzer = &analysis.Analyzer{
	Name: "callgraph",
	Doc: "build per-function call-graph and allocation summaries\n\n" +
		"Not a check itself: exports the bottom-up summary facts the\n" +
		"interprocedural analyzers (allocfree, blockcheck, lockorder)\n" +
		"consume.",
	Run: run,
}

// DisplayName is the compact diagnostic name for a function:
// "pkg.Name" for package functions, "(*Recv).Name" for methods.
func DisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			star = "*"
		}
		if n := checkutil.NamedOf(t); n != nil {
			return "(" + star + n.Obj().Name() + ")." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// Lookup returns fn's summary fact, if one was exported (fn is normalized
// to its Origin declaration first, so instantiated generic methods share
// the declared method's summary).
func Lookup(pass *analysis.Pass, fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	var ff FuncFact
	if pass.ImportObjectFact(fn.Origin(), &ff) {
		return ff.S
	}
	return nil
}

// Implementers resolves an interface method against every module type
// exported as an RTA candidate, returning the concrete methods a dynamic
// call could dispatch to. filter, when non-nil, limits candidates to
// types whose defining package it accepts.
func Implementers(pass *analysis.Pass, method *types.Func, filter func(*types.Package) bool) []*types.Func {
	sig, ok := method.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, of := range pass.AllObjectFacts(&TypeFact{}) {
		named := of.Fact.(*TypeFact).Named
		if filter != nil && !filter(named.Obj().Pkg()) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, method.Pkg(), method.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn.Origin())
		}
	}
	return out
}

// Imports reports whether pkg transitively imports target (or is target):
// the visibility filter used to keep RTA candidate sets honest — a root
// cannot dispatch to a type its component could never have constructed.
func Imports(pkg, target *types.Package) bool {
	if pkg == nil || target == nil {
		return false
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) bool
	walk = func(p *types.Package) bool {
		if p == target {
			return true
		}
		if seen[p] {
			return false
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			if walk(imp) {
				return true
			}
		}
		return false
	}
	return walk(pkg)
}

func run(pass *analysis.Pass) (any, error) {
	g := &Graph{
		Funcs: make(map[*types.Func]*Summary),
		Lits:  make(map[*ast.FuncLit]*Summary),
	}
	b := &builder{pass: pass, g: g}

	// Two passes: create every summary first so literal references and
	// same-package argument edges resolve, then fill them in.
	type work struct {
		fb  checkutil.FuncBody
		sum *Summary
	}
	var todo []work
	for _, f := range pass.Files {
		for _, fb := range checkutil.Bodies(f) {
			sum := &Summary{Pos: fb.Body.Pos()}
			if fb.Decl != nil {
				fn, _ := pass.TypesInfo.Defs[fb.Decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				sum.Fn = fn
				sum.Name = DisplayName(fn)
				g.Funcs[fn] = sum
			} else {
				sum.Name = "func literal"
				g.Lits[fb.Lit] = sum
			}
			todo = append(todo, work{fb, sum})
		}
	}
	for _, w := range todo {
		b.fill(w.sum, w.fb)
	}
	for fn, sum := range g.Funcs {
		pass.ExportObjectFact(fn.Origin(), &FuncFact{S: sum})
	}

	// RTA candidates: every package-scope named type with methods.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.NumMethods() == 0 {
			continue
		}
		pass.ExportObjectFact(tn, &TypeFact{Named: named})
	}
	return g, nil
}

type builder struct {
	pass *analysis.Pass
	g    *Graph
}

// signatureOf returns the function's own signature.
func (b *builder) signatureOf(fb checkutil.FuncBody) *types.Signature {
	if fb.Decl != nil {
		if fn, ok := b.pass.TypesInfo.Defs[fb.Decl.Name].(*types.Func); ok {
			return fn.Type().(*types.Signature)
		}
		return nil
	}
	if tv, ok := b.pass.TypesInfo.Types[fb.Lit]; ok {
		sig, _ := tv.Type.(*types.Signature)
		return sig
	}
	return nil
}

func (b *builder) fill(sum *Summary, fb checkutil.FuncBody) {
	info := b.pass.TypesInfo
	sig := b.signatureOf(fb)
	paramIdx := make(map[*types.Var]int)
	if sig != nil {
		sum.Params = make([]ParamUse, sig.Params().Len())
		for i := 0; i < sig.Params().Len(); i++ {
			paramIdx[sig.Params().At(i)] = i
		}
	}
	// Idents whose use the call/compare visitors already classified; any
	// other use of a func-typed parameter marks it escaping.
	accounted := make(map[*ast.Ident]bool)
	locals := b.localFuncs(fb)

	checkutil.WalkStack(fb.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if isIIFE(x, stack) {
				return true // body executes right here: inline it
			}
			if lit := b.g.Lits[x]; lit != nil {
				sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpClosure, What: "func literal", Lit: lit})
			}
			return false // the literal has its own summary
		case *ast.CallExpr:
			b.call(sum, x, paramIdx, locals, accounted, stack)
		case *ast.GoStmt:
			sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpGo, What: "go statement"})
		case *ast.DeferStmt:
			sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpDefer, What: "defer statement"})
		case *ast.SendStmt:
			sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpChanSend, What: "channel send"})
		case *ast.SelectStmt:
			sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpSelect, What: "select"})
		case *ast.UnaryExpr:
			switch x.Op {
			case token.ARROW:
				sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpChanRecv, What: "channel receive"})
			case token.AND:
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpNew, What: "&composite literal"})
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpChanRecv, What: "range over channel"})
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstString(info, x) {
				sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpConcat, What: "string +"})
			}
			// fn == nil / fn != nil does not make a parameter escape.
			if x.Op == token.EQL || x.Op == token.NEQ {
				accountNilCompare(info, x, accounted)
			}
		case *ast.CompositeLit:
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Map:
				sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpMake, What: "map literal"})
			case *types.Slice:
				sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpMake, What: "slice literal"})
			}
			b.compositeFieldFuncs(x)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if tv, ok := info.Types[idx.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							sum.Sites = append(sum.Sites, Site{Pos: lhs.Pos(), Op: OpMapWrite, What: "map assignment"})
						}
					}
				}
			}
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info, x.Lhs[0]) {
				sum.Sites = append(sum.Sites, Site{Pos: x.Pos(), Op: OpConcat, What: "string +="})
			}
			b.assignFieldFuncs(x)
		}
		return true
	})

	// Any unclassified use of a func-typed parameter is an escape. Nested
	// literals are walked too: a parameter captured by a closure was not
	// classified by this function's call visitor, so it counts as escaping
	// — conservative, which is the right direction here.
	if sig != nil {
		ast.Inspect(fb.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || accounted[id] {
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok {
				if i, isParam := paramIdx[v]; isParam {
					if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
						sum.Params[i].Escapes = true
					}
				}
			}
			return true
		})
	}
}

// isIIFE reports whether lit is a zero-parameter function literal invoked
// directly where it is written (func(){...}(), possibly deferred): its
// body runs in the enclosing frame, so it is inlined into the enclosing
// summary — which also lets calls to captured parameters resolve, the
// runOnce recover-wrapper pattern.
func isIIFE(lit *ast.FuncLit, stack []ast.Node) bool {
	if lit.Type.Params != nil && len(lit.Type.Params.List) > 0 {
		return false
	}
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	return ok && ast.Unparen(call.Fun) == ast.Expr(lit)
}

// localSrc is the single resolved source of a func-typed local variable,
// for the `f := t.cfg.Hook; f(...)` idiom. Reassigned or unresolvable
// locals are poisoned.
type localSrc struct {
	field *types.Var
	fn    *types.Func
	lit   *Summary
	bad   bool
}

// localFuncs pre-scans a body for func-typed locals with exactly one
// resolvable assignment, so calls through them resolve like the source.
func (b *builder) localFuncs(fb checkutil.FuncBody) map[*types.Var]*localSrc {
	info := b.pass.TypesInfo
	locals := make(map[*types.Var]*localSrc)
	record := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, _ := info.Defs[id].(*types.Var)
		if v == nil {
			v, _ = info.Uses[id].(*types.Var)
		}
		if v == nil || v.IsField() {
			return
		}
		if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
			return
		}
		if prev, seen := locals[v]; seen {
			prev.bad = true // reassigned: no single source
			return
		}
		src := &localSrc{}
		locals[v] = src
		switch r := ast.Unparen(rhs).(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[r].(*types.Func); ok {
				src.fn = fn.Origin()
				return
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[r]; ok {
				switch sel.Kind() {
				case types.FieldVal:
					if f, ok := sel.Obj().(*types.Var); ok {
						src.field = f
						return
					}
				case types.MethodVal, types.MethodExpr:
					if fn, ok := sel.Obj().(*types.Func); ok {
						src.fn = fn.Origin()
						return
					}
				}
			} else if fn, ok := info.Uses[r.Sel].(*types.Func); ok {
				src.fn = fn.Origin()
				return
			}
		case *ast.FuncLit:
			if lit := b.g.Lits[r]; lit != nil {
				src.lit = lit
				return
			}
		}
		if tv, ok := info.Types[rhs]; ok && tv.IsNil() {
			return // f = nil: nothing callable flows in
		}
		src.bad = true
	}
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				record(as.Lhs[i], as.Rhs[i])
			}
		} else {
			for _, lhs := range as.Lhs {
				record(lhs, as.Rhs[0]) // multi-value: poisoned below
			}
		}
		return true
	})
	return locals
}

// call records one call expression: conversion sites, builtin allocation
// sites, or an outgoing call edge.
func (b *builder) call(sum *Summary, call *ast.CallExpr, paramIdx map[*types.Var]int, locals map[*types.Var]*localSrc, accounted map[*ast.Ident]bool, stack []ast.Node) {
	info := b.pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		b.conversion(sum, call, tv.Type, stack)
		return
	}

	if name := checkutil.BuiltinName(info, call); name != "" {
		if op, ok := builtinOps[name]; ok {
			sum.Sites = append(sum.Sites, Site{Pos: call.Pos(), Op: op, What: name})
		}
		return
	}

	edge := Call{Pos: call.Pos(), Param: -1}
	deferred, goStmt := false, false
	if len(stack) > 0 {
		switch stack[len(stack)-1].(type) {
		case *ast.DeferStmt:
			deferred = true
		case *ast.GoStmt:
			goStmt = true
		}
	}
	edge.Deferred, edge.Go = deferred, goStmt

	// Unwrap explicit generic instantiation: f[T](...) / recv.m[T](...).
	// Indexing anything but a function is an element of a slice, array or
	// map, called through like any other func value.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, generic := info.TypeOf(ix.X).(*types.Signature); generic {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	switch f := fun.(type) {
	case *ast.Ident:
		accounted[f] = true
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			edge.Callee = obj.Origin()
		case *types.Var:
			if i, ok := paramIdx[obj]; ok {
				edge.Param = i
			} else if obj.IsField() {
				edge.Field = obj
			} else if src, ok := locals[obj]; ok && !src.bad {
				switch {
				case src.field != nil:
					edge.Field = src.field
				case src.fn != nil:
					edge.Callee = src.fn
				case src.lit != nil:
					edge.Lit = src.lit
				default:
					edge.Unknown = true
				}
			} else {
				edge.Unknown = true
			}
		default:
			edge.Unknown = true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn := sel.Obj().(*types.Func)
				edge.RecvType = sel.Recv()
				if types.IsInterface(sel.Recv()) {
					edge.Iface = fn.Origin()
				} else {
					edge.Callee = fn.Origin()
				}
			case types.MethodExpr:
				if fn, ok := sel.Obj().(*types.Func); ok {
					edge.Callee = fn.Origin()
				} else {
					edge.Unknown = true
				}
			case types.FieldVal:
				if v, ok := sel.Obj().(*types.Var); ok {
					edge.Field = v
				} else {
					edge.Unknown = true
				}
			default:
				edge.Unknown = true
			}
		} else if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			edge.Callee = fn.Origin() // package-qualified call
		} else {
			edge.Unknown = true
		}
	case *ast.FuncLit:
		if f.Type.Params == nil || len(f.Type.Params.List) == 0 {
			return // IIFE: body inlined into this summary by the literal visitor
		}
		edge.Lit = b.g.Lits[f]
	default:
		edge.Unknown = true
	}

	// Function-valued arguments: static functions, method values, and
	// literals, plus parameter hand-offs for the escape analysis.
	for i, arg := range call.Args {
		switch a := ast.Unparen(arg).(type) {
		case *ast.Ident:
			switch obj := info.Uses[a].(type) {
			case *types.Func:
				accounted[a] = true
				edge.Args = append(edge.Args, ArgVal{Index: i, Fn: obj.Origin(), Param: -1})
			case *types.Var:
				if pi, ok := paramIdx[obj]; ok {
					if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc {
						accounted[a] = true
						edge.Args = append(edge.Args, ArgVal{Index: i, Param: pi})
					}
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[a]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					edge.Args = append(edge.Args, ArgVal{Index: i, Fn: fn.Origin(), Param: -1})
				}
			} else if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
				edge.Args = append(edge.Args, ArgVal{Index: i, Fn: fn.Origin(), Param: -1})
			}
		case *ast.FuncLit:
			if lit := b.g.Lits[a]; lit != nil {
				edge.Args = append(edge.Args, ArgVal{Index: i, Lit: lit, Param: -1})
			}
		}
	}
	sum.Calls = append(sum.Calls, edge)
	c := &sum.Calls[len(sum.Calls)-1]
	for _, a := range c.Args {
		if a.Param >= 0 {
			sum.Params[a.Param].Passes = append(sum.Params[a.Param].Passes, ParamPass{Call: c, Arg: a.Index})
		}
	}
}

// conversion records string<->[]byte conversions and interface boxing.
// The compiler-recognized free positions — a []byte->string conversion
// used as a map index or compared with == / != — are exempt.
func (b *builder) conversion(sum *Summary, call *ast.CallExpr, target types.Type, stack []ast.Node) {
	info := b.pass.TypesInfo
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	atv, ok := info.Types[arg]
	if !ok || atv.Value != nil || atv.IsNil() { // constant/nil conversions are free
		return
	}
	from, to := atv.Type, target
	switch {
	case isString(to) && isByteSlice(from):
		if conversionExempt(info, call, stack) {
			return
		}
		sum.Sites = append(sum.Sites, Site{Pos: call.Pos(), Op: OpStrConv, What: "string([]byte)"})
	case isByteSlice(to) && isString(from):
		sum.Sites = append(sum.Sites, Site{Pos: call.Pos(), Op: OpStrConv, What: "[]byte(string)"})
	case types.IsInterface(to) && !types.IsInterface(from):
		if _, isPtr := from.Underlying().(*types.Pointer); !isPtr {
			sum.Sites = append(sum.Sites, Site{Pos: call.Pos(), Op: OpBox, What: "conversion to interface"})
		}
	}
}

// conversionExempt reports whether a string([]byte) conversion sits in a
// position the compiler does not materialize: a map index m[string(b)],
// or either side of an == / != comparison.
func conversionExempt(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.IndexExpr:
			tv, ok := info.Types[p.X]
			if !ok {
				return false
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap || ast.Unparen(p.Index) != ast.Expr(call) {
				return false
			}
			// Only the lookup position is free; m[string(b)] = v must
			// materialize the key.
			if i > 0 {
				if as, ok := stack[i-1].(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if ast.Unparen(lhs) == ast.Expr(p) {
							return false
						}
					}
				}
			}
			return true
		case *ast.BinaryExpr:
			return p.Op == token.EQL || p.Op == token.NEQ
		default:
			return false
		}
	}
	return false
}

// compositeFieldFuncs records function values stored into struct fields
// through composite literals: S{Handler: f}.
func (b *builder) compositeFieldFuncs(lit *ast.CompositeLit) {
	info := b.pass.TypesInfo
	if _, ok := info.Types[lit].Type.Underlying().(*types.Struct); !ok {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		field, ok := info.Uses[key].(*types.Var)
		if !ok || !field.IsField() {
			continue
		}
		if _, isFunc := field.Type().Underlying().(*types.Signature); !isFunc {
			continue
		}
		b.recordFieldStore(field, kv.Value)
	}
}

// assignFieldFuncs records function values stored into struct fields
// through assignments: s.Handler = f.
func (b *builder) assignFieldFuncs(assign *ast.AssignStmt) {
	info := b.pass.TypesInfo
	for i, lhs := range assign.Lhs {
		if i >= len(assign.Rhs) {
			break
		}
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			continue
		}
		field, ok := s.Obj().(*types.Var)
		if !ok {
			continue
		}
		if _, isFunc := field.Type().Underlying().(*types.Signature); !isFunc {
			continue
		}
		b.recordFieldStore(field, assign.Rhs[i])
	}
}

func (b *builder) recordFieldStore(field *types.Var, rhs ast.Expr) {
	info := b.pass.TypesInfo
	var ff FieldFuncs
	b.pass.ImportObjectFact(field, &ff)
	switch v := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			ff.Funcs = append(ff.Funcs, fn.Origin())
		} else if info.Types[rhs].IsNil() {
			break // clearing the field stores nothing callable
		} else {
			ff.Opaque = true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[v]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				ff.Funcs = append(ff.Funcs, fn.Origin())
				break
			}
		}
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			ff.Funcs = append(ff.Funcs, fn.Origin())
		} else {
			ff.Opaque = true
		}
	case *ast.FuncLit:
		if lit := b.g.Lits[v]; lit != nil {
			ff.Lits = append(ff.Lits, lit)
		} else {
			ff.Opaque = true
		}
	default:
		if !info.Types[rhs].IsNil() {
			ff.Opaque = true
		}
	}
	b.pass.ExportObjectFact(field, &ff)
}

func accountNilCompare(info *types.Info, x *ast.BinaryExpr, accounted map[*ast.Ident]bool) {
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			accounted[id] = true
		}
	}
	if info.Types[x.X].IsNil() {
		mark(x.Y)
	}
	if info.Types[x.Y].IsNil() {
		mark(x.X)
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isString(tv.Type)
}

func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isString(tv.Type) && tv.Value == nil
}
