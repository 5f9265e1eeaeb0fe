// Package stripelib is the testdata stand-in for a striped lock table: it
// has the Lock/Unlock/LockPair method set the lockorder and seqlock
// analyzers recognize structurally, and lives outside the test packages so
// the provider-package exemption does not apply to them.
package stripelib

// Stripe is a table of per-stripe locks with embedded version counters.
type Stripe struct {
	words []uint64
}

// New returns a stripe table with n stripes.
func New(n int) *Stripe { return &Stripe{words: make([]uint64, n)} }

func (s *Stripe) Lock(i uint64)   {}
func (s *Stripe) Unlock(i uint64) {}

// LockPair acquires two stripes in ascending index order.
func (s *Stripe) LockPair(i, j uint64) (uint64, uint64) {
	if j < i {
		i, j = j, i
	}
	return i, j
}

func (s *Stripe) UnlockPair(i, j uint64) {}

func (s *Stripe) LockAll()   {}
func (s *Stripe) UnlockAll() {}

// LockOrdered acquires a whole set of stripes in ascending index order.
func (s *Stripe) LockOrdered(idxs []uint64) []uint64 { return idxs }

func (s *Stripe) UnlockOrdered(idxs []uint64) {}

// Snapshot returns stripe i's version for an optimistic read.
func (s *Stripe) Snapshot(i uint64) uint64 { return s.words[i] }

// Validate re-checks that stripe i's version still equals snap.
func (s *Stripe) Validate(i, snap uint64) bool { return s.words[i] == snap }

// Spin is a single busy-waiting lock: Lock/Unlock plus Locked, no
// LockPair, so it is spin-shaped but not striped.
type Spin struct{ state uint32 }

func (m *Spin) Lock()        {}
func (m *Spin) Unlock()      {}
func (m *Spin) Locked() bool { return m.state != 0 }
