// Package checkutil holds the small AST/type helpers shared by the
// cuckoovet analyzers.
package checkutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// Callee resolves the static callee of call, or nil for calls through
// non-constant function values, built-ins, and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// BuiltinName returns the name of the built-in function called by call
// ("make", "panic", ...) or "". Package unsafe's functions (String,
// StringData, Slice, SliceData, Add, Sizeof, ...) are built-ins too, named
// without the qualifier: the compiler expands each in place, so like len
// or copy they are neither call edges nor allocations.
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel // unsafe.String
	default:
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// Receiver returns the receiver expression of a method call, or nil.
func Receiver(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}

// IsAtomicPkgFunc reports whether fn is a function of package sync/atomic
// (AddUint64, LoadUint64, ...). Methods of the atomic.Uint64-style types
// are not matched; those types enforce their own discipline.
func IsAtomicPkgFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// HasMethods reports whether t (or *t) has all of the named methods.
func HasMethods(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
	}
	ms := types.NewMethodSet(t)
	for _, name := range names {
		found := false
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// NamedOf unwraps pointers and aliases to the named type of t, if any.
func NamedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// IsAtomicType reports whether t is one of sync/atomic's typed atomics
// (atomic.Uint64, atomic.Pointer[T], ...).
func IsAtomicType(t types.Type) bool {
	n := NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync/atomic"
}

// FieldOf returns the struct-field (or package-level var) object an
// addressable expression ultimately denotes, unwrapping index, star and
// paren wrappers: &t.stats.restarts, &t.keys[i] and &pkgVar all resolve.
func FieldOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				v, _ := sel.Obj().(*types.Var)
				return v
			}
			// Package-qualified var.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				return v
			}
			return nil
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && !v.IsField() && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// WalkStack is ast.Inspect plus an ancestor stack: push is called with the
// node and its ancestors (outermost first, not including the node itself).
func WalkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := visit(n, stack)
		stack = append(stack, n)
		if !keep {
			stack = stack[:len(stack)-1]
		}
		return keep
	})
}

// FuncBodies yields every function body of the file along with the
// enclosing function's types object (nil for function literals not bound
// to a declaration). Nested literals are yielded separately and are not
// re-entered by the outer walk.
type FuncBody struct {
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt
}

// Bodies collects the function declarations and literals of file, each
// once.
func Bodies(file *ast.File) []FuncBody {
	var out []FuncBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, FuncBody{Decl: fn, Body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, FuncBody{Lit: fn, Body: fn.Body})
		}
		return true
	})
	return out
}

// HasTypeParams reports whether t transitively contains a type parameter,
// in which case concrete sizes/offsets cannot be computed.
func HasTypeParams(t types.Type) bool {
	seen := make(map[types.Type]bool)
	var walk func(types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.TypeParam:
			return true
		case *types.Named:
			if u.TypeParams().Len() > 0 && u.TypeArgs().Len() == 0 {
				return true
			}
			for i := 0; i < u.TypeArgs().Len(); i++ {
				if walk(u.TypeArgs().At(i)) {
					return true
				}
			}
			return walk(u.Underlying())
		case *types.Pointer:
			return walk(u.Elem())
		case *types.Slice:
			return walk(u.Elem())
		case *types.Array:
			return walk(u.Elem())
		case *types.Map:
			return walk(u.Key()) || walk(u.Elem())
		case *types.Chan:
			return walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Alias:
			return walk(types.Unalias(t))
		}
		return false
	}
	return walk(t)
}

// PkgPathIn reports whether fn's package path is one of paths.
func PkgPathIn(fn *types.Func, paths ...string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	for _, want := range paths {
		if p == want || strings.HasPrefix(p, want+"/") {
			return true
		}
	}
	return false
}
