// Package genercheck checks the two-generation invariants of the
// incremental-resize protocol (generic/migrate.go).
//
// An incremental grow publishes the live arrays and the draining old
// generations behind one state pointer, and mutating that pointer is how
// both grow-start and migration-finish announce themselves. Code that
// loads the state and then touches bucket arrays is only correct if it
// re-checks, under the covering stripes, that the state it loaded is
// still published — otherwise it can read or write arrays of a
// generation that was retired (or grown past) between the load and the
// lock. Similarly, a bucket's migrated mark is set exactly once, when
// the bucket is empty forever; touching a generation's arrays after
// marking would resurrect data the readers are entitled to never see
// again.
//
// The analyzer is structural, like its siblings: it recognizes the
// protocol by method and field names rather than concrete types, so the
// testdata goldens and the real table are checked by the same rules.
// Per function body:
//
//   - R1: if the function obtains a generation state (calls a method
//     named loadState, or pin) and indexes or slices a bucket array (a
//     field named keys, vals or tags), reads a slot's key through the
//     keyAt accessor or a bucket's tags through bucketTags, or hands the
//     state to the probe (a method named locate, which reads all three on
//     its caller's behalf), every such access must be positionally
//     preceded by a stateValid call — the re-check that pins the
//     generation set for the critical section — or by pin, which is the
//     load and the re-check in one.
//   - R2: no bucket-array access may positionally follow a markMigrated
//     call: once a bucket is marked, its generation must never be
//     touched again from that code path.
//
// Helpers that receive arrays (or, like locate, the state) as parameters
// and never call loadState are exempt from R1 — validation is their
// caller's obligation (that is why Range and Clear copy buckets through
// free functions), and counting the call to locate as an access is what
// carries the obligation across that seam.
package genercheck

import (
	"go/ast"
	"go/token"

	"cuckoohash/internal/analysis"
	"cuckoohash/internal/analysis/checkutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "genercheck",
	Doc: "flag generation-array accesses that skip the stateValid re-check " +
		"or follow a markMigrated (incremental-resize protocol)",
	Run: run,
}

// genArrayFields are the bucket-array field names of the table's
// generation arrays; indexing one of these is what the rules guard.
var genArrayFields = map[string]bool{"keys": true, "vals": true, "tags": true}

const (
	evLoad = iota
	evValidate
	evMark
	evAccess
)

// event is one protocol-relevant operation in source order.
type event struct {
	pos  token.Pos
	kind int
	what string
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, fb := range checkutil.Bodies(file) {
			checkBody(pass, fb.Body)
		}
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []event

	checkutil.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate body, walked on its own
		}
		var indexed ast.Expr // the operand of an index or slice expression
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := checkutil.Callee(pass.TypesInfo, x)
			if fn == nil || checkutil.Receiver(pass.TypesInfo, x) == nil {
				return true
			}
			switch fn.Name() {
			case "loadState":
				events = append(events, event{x.Pos(), evLoad, "loadState"})
			case "stateValid":
				events = append(events, event{x.Pos(), evValidate, "stateValid"})
			case "pin":
				events = append(events, event{x.Pos(), evLoad, "pin"}, event{x.Pos(), evValidate, "pin"})
			case "markMigrated":
				events = append(events, event{x.Pos(), evMark, "markMigrated"})
			case "keyAt", "bucketTags", "locate":
				events = append(events, event{x.Pos(), evAccess, fn.Name()})
			}
		case *ast.IndexExpr:
			indexed = x.X
		case *ast.SliceExpr:
			indexed = x.X
		}
		if indexed != nil {
			if f := checkutil.FieldOf(pass.TypesInfo, indexed); f != nil && genArrayFields[f.Name()] {
				events = append(events, event{n.Pos(), evAccess, f.Name()})
			}
		}
		return true
	})

	haveLoad := false
	for _, e := range events {
		if e.kind == evLoad {
			haveLoad = true
			break
		}
	}

	validated := false // a stateValid call has been seen
	marked := ""       // nonempty once a markMigrated call has been seen
	for _, e := range events {
		switch e.kind {
		case evValidate:
			validated = true
		case evMark:
			marked = "markMigrated"
		case evAccess:
			if haveLoad && !validated {
				pass.Reportf(e.pos, "generation array %q accessed without a preceding stateValid re-check; the loaded generation set may have been republished before the stripes were taken", e.what)
			}
			if marked != "" {
				pass.Reportf(e.pos, "generation array %q accessed after %s; a marked bucket's generation is retired and must never be touched again", e.what, marked)
			}
		}
	}
}
