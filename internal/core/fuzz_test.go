package core

import "testing"

// FuzzTableOps interprets fuzz input as an op script against a small table
// and cross-checks a map oracle plus the structural invariants. Each input
// byte pair is (opcode, key); values derive from the position.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 2, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 5, 4, 5, 3, 5, 0, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		o := Defaults(256)
		o.Seed = 9
		tab := MustNewTable(o)
		oracle := map[uint64]uint64{}
		grows := 0
		for i := 0; i+1 < len(script); i += 2 {
			op, kb := script[i], script[i+1]
			k := uint64(kb) % 300 // key 0 included
			v := uint64(i)
			switch op % 6 {
			case 0:
				err := tab.Insert(k, v)
				_, exists := oracle[k]
				switch {
				case exists && err != ErrExists:
					t.Fatalf("Insert(%d) on existing key: %v", k, err)
				case !exists && err == nil:
					oracle[k] = v
				case !exists && err != ErrFull && err != nil:
					t.Fatalf("Insert(%d): %v", k, err)
				}
			case 1:
				if err := tab.Upsert(k, v); err == nil {
					oracle[k] = v
				} else if err != ErrFull {
					t.Fatalf("Upsert(%d): %v", k, err)
				}
			case 2:
				_, exists := oracle[k]
				if tab.Update(k, v) != exists {
					t.Fatalf("Update(%d) disagreed with oracle", k)
				}
				if exists {
					oracle[k] = v
				}
			case 3:
				_, exists := oracle[k]
				if tab.Delete(k) != exists {
					t.Fatalf("Delete(%d) disagreed with oracle", k)
				}
				delete(oracle, k)
			case 4:
				got, ok := tab.Lookup(k)
				want, exists := oracle[k]
				if ok != exists || (ok && got != want) {
					t.Fatalf("Lookup(%d) = %d,%v oracle %d,%v", k, got, ok, want, exists)
				}
			default:
				// Bound table growth or a long script doubles capacity
				// until the fuzzer runs out of memory.
				if grows < 3 {
					grows++
					if err := tab.Grow(); err != nil {
						t.Fatalf("Grow: %v", err)
					}
				}
			}
		}
		// Final consistency: oracle equivalence and structural invariants.
		if tab.Len() != uint64(len(oracle)) {
			t.Fatalf("Len = %d oracle %d", tab.Len(), len(oracle))
		}
		for k, v := range oracle {
			if got, ok := tab.Lookup(k); !ok || got != v {
				t.Fatalf("final Lookup(%d) = %d,%v want %d", k, got, ok, v)
			}
		}
		checkInvariants(t, tab)
	})
}
