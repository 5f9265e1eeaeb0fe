// Package htmlib is the testdata stand-in for the emulated-HTM region: a
// Txn handle with the Load/Store/Abort method set the blockcheck analyzer
// recognizes structurally, declared outside the test package so the
// implementation-package exemption does not apply there.
package htmlib

// Txn is a transaction handle over a word arena.
type Txn struct {
	words []uint64
}

func (t *Txn) Load(addr uint32) uint64     { return t.words[addr] }
func (t *Txn) Store(addr uint32, v uint64) { t.words[addr] = v }
func (t *Txn) Abort(code uint64)           {}

// Region runs transaction bodies.
type Region struct {
	words []uint64
}

// NewRegion returns a region over n words.
func NewRegion(n int) *Region { return &Region{words: make([]uint64, n)} }

// Run executes body as one transaction.
func (r *Region) Run(body func(tx *Txn) error) error {
	return body(&Txn{words: r.words})
}
