// Package callgraphtest exercises the callgraph builder's edge kinds:
// interface dispatch, method values and other aliases through locals,
// method expressions, mutual recursion,
// func-typed struct fields, and Origin-normalized generic instantiation.
// The assertions live in callgraph_test.go; this package only provides
// the shapes.
package callgraphtest

import "strings"

type ringer interface{ ring() }

type bell struct{ n int }

func (b *bell) ring() { b.n++ }

type gong struct{ n int }

func (g *gong) ring() { g.n++ }

func dispatch(r ringer) { r.ring() }

type widget struct {
	onPing func()
	count  int
}

func (w *widget) inc() { w.count++ }

func named() {}

func install(w *widget) {
	w.onPing = named
	w.onPing = func() { w.count++ }
}

func invokeField(w *widget) { w.onPing() }

func methodValue(w *widget) {
	f := w.inc
	f()
}

func ident[T any](v T) T { return v }

// aliases calls through locals bound once to a function, a method
// expression and a package-qualified function, calls a method expression
// and an explicit instantiation directly, and makes three calls nothing
// resolves: through a local bound twice, through one bound only to nil,
// and through an element of a slice parameter.
func aliases(w *widget, fs []func()) {
	f := named
	f()
	g := (*widget).inc
	g(w)
	(*widget).inc(w)
	h := strings.ToUpper
	h("x")
	k := named
	k = func() {}
	k()
	var z func()
	z = nil
	z()
	ident[int](1)
	fs[0]()
}

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

type pair[V any] struct{ a, b V }

func (p *pair[V]) first() V { return p.a }

func generic(pi *pair[int], ps *pair[string]) (int, string) {
	return pi.first(), ps.first()
}
