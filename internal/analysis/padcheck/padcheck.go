// Package padcheck enforces cache-line padding for sharded hot counters.
//
// Principle P1 of PR 2 (after §4.2/§6 of the paper): a per-shard or
// per-stripe counter exists precisely so that concurrent writers touch
// different cache lines; if the shard struct's size is not a multiple of
// the 64-byte line, adjacent shards share a line and the sharding buys
// nothing — the counter array becomes the coherence hotspot it was built
// to avoid. The bug is invisible to every dynamic tool (the code is
// race-free and correct, just slow), so it is checked statically: any
// struct type that contains atomic state and is used as the element of an
// array or slice must have sizeof % 64 == 0.
package padcheck

import (
	"go/ast"
	"go/types"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/atomicfield"
	"cuckoohash/internal/analysis/checkutil"
)

const cacheLine = 64

var Analyzer = &analysis.Analyzer{
	Name: "padcheck",
	Doc: "flag arrays/slices of atomic-bearing shard structs whose size is " +
		"not a multiple of the 64-byte cache line (false sharing, principle P1)",
	Requires: []*analysis.Analyzer{atomicfield.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	reported := make(map[*types.Named]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			at, ok := n.(*ast.ArrayType)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[at]
			if !ok {
				return true
			}
			var elem types.Type
			switch u := tv.Type.Underlying().(type) {
			case *types.Array:
				elem = u.Elem()
			case *types.Slice:
				elem = u.Elem()
			default:
				return true
			}
			// A slice of pointers lays no two records side by side, so
			// the pointee's size is irrelevant to false sharing.
			if _, ptr := elem.(*types.Pointer); ptr {
				return true
			}
			named := checkutil.NamedOf(elem)
			if named == nil || reported[named] {
				return true
			}
			// A bare []atomic.Uint64 is not a shard struct: dense version
			// tables (one word per stripe) deliberately pack words per
			// line; the rule governs composite per-shard counter records.
			if checkutil.IsAtomicType(named) {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			if checkutil.HasTypeParams(named) || !containsAtomic(pass, st, 0) {
				return true
			}
			size := pass.TypesSizes.Sizeof(st)
			if size%cacheLine == 0 {
				return true
			}
			reported[named] = true
			pass.Reportf(at.Pos(),
				"shard type %s holds atomic counters but is %d bytes (not a multiple of the %d-byte cache line): adjacent shards will false-share; pad with _ [%d]byte (principle P1)",
				named.Obj().Name(), size, cacheLine, (cacheLine-size%cacheLine)%cacheLine)
			return true
		})
	}
	return nil, nil
}

// containsAtomic reports whether the struct transitively holds atomic
// state: a sync/atomic typed field, or a field under atomicfield
// discipline.
func containsAtomic(pass *analysis.Pass, st *types.Struct, depth int) bool {
	if depth > 4 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		t := f.Type()
		if checkutil.IsAtomicType(t) {
			return true
		}
		if pass.ImportObjectFact(f, &atomicfield.IsAtomic{}) {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if containsAtomic(pass, u, depth+1) {
				return true
			}
		case *types.Array:
			if inner, ok := u.Elem().Underlying().(*types.Struct); ok && containsAtomic(pass, inner, depth+1) {
				return true
			}
			if checkutil.IsAtomicType(u.Elem()) {
				return true
			}
		}
	}
	return false
}
