package core

import (
	"testing"

	"repro/internal/cache"
)

// FuzzFSMInvariants drives the dynamic exclusion FSM with an arbitrary
// access sequence over a deliberately tiny conflict-heavy address space
// and checks the structural invariants after every access.
func FuzzFSMInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1})
	f.Add([]byte{0, 16, 0, 16, 0, 16})
	f.Add([]byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, seq []byte) {
		geom := cache.DM(64, 4) // 16 lines; byte b maps to one of 16 sets
		for _, cfg := range []Config{
			{Geometry: geom, Store: NewTableStore(false)},
			{Geometry: geom, Store: NewTableStore(true)},
			{Geometry: geom, Store: MustHashedStore(32, false), StickyMax: 3},
			{Geometry: geom, Store: NewTableStore(false), UseLastLine: true},
		} {
			c := Must(cfg)
			var accesses uint64
			for _, b := range seq {
				addr := uint64(b) * 4 // 256 blocks over 16 lines: heavy conflicts
				res := c.Access(addr)
				accesses++
				switch res {
				case cache.Hit:
					// Resident (or buffered); sticky must be at max if in
					// the cache proper.
					if c.Contains(addr) && c.Sticky(addr) == 0 && !cfg.UseLastLine {
						t.Fatalf("hit left sticky at 0 for %#x", addr)
					}
				case cache.MissFill:
					if !c.Contains(addr) {
						t.Fatalf("fill did not store %#x", addr)
					}
				case cache.MissBypass:
					if c.Contains(addr) {
						t.Fatalf("bypass stored %#x", addr)
					}
				default:
					t.Fatalf("invalid result %v", res)
				}
				s := c.Stats()
				if s.Accesses != accesses || s.Hits+s.Misses != accesses {
					t.Fatalf("stats inconsistent: %+v after %d accesses", s, accesses)
				}
				if s.Fills+s.Bypasses != s.Misses {
					t.Fatalf("miss classification inconsistent: %+v", s)
				}
			}
		}
	})
}

// FuzzQuietSet checks the quiet-set fact of TestQuietSetSettles on
// fuzzed one-set sequences and hit-last answers: sticky picks StickyMax
// in [1, 8], each byte of seq references one of four blocks, and the
// store answers the bits of answers in turn, cyclically.
//
//	go test -fuzz FuzzQuietSet ./internal/core/
func FuzzQuietSet(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 1, 0, 0, 0, 2, 0}, []byte{0})
	f.Add(uint8(1), []byte{0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1}, []byte{0x5a})
	f.Add(uint8(3), []byte{3, 3, 3, 3, 3, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3}, []byte{0x01, 0xff})
	f.Fuzz(func(t *testing.T, sticky uint8, seq, answers []byte) {
		blocks := make([]uint64, len(seq))
		for i, b := range seq {
			blocks[i] = uint64(b % 4)
		}
		newBits := func() func() bool {
			i := 0
			return func() bool {
				if len(answers) == 0 {
					return false
				}
				bit := answers[i/8%len(answers)]>>(i%8)&1 == 1
				i++
				return bit
			}
		}
		checkQuietSet(t, 1+int(sticky%8), blocks, newBits)
	})
}
