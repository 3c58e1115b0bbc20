package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
)

func TestStreamDeterministic(t *testing.T) {
	a := stream(3, 1000)
	b := stream(3, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("stream is not deterministic for a fixed seed")
	}
	c := stream(4, 1000)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should give different streams")
	}
}

func TestStreamIsConflictHeavy(t *testing.T) {
	addrs := stream(1, 4000)
	hot := 0
	for _, a := range addrs {
		if a == 0 || a == 1<<14 {
			hot++
		}
	}
	// Roughly 2/6 of draws target the two hot conflicting addresses.
	if hot < len(addrs)/5 {
		t.Errorf("only %d/%d hot references; stream lost its conflict pressure", hot, len(addrs))
	}
}

func TestCheckAcceptsAKnownGoodSimulator(t *testing.T) {
	Check(t, "dm", Options{EventualHit: true, Streams: 2, Refs: 500},
		func() cache.Simulator { return cache.MustDirectMapped(cache.DM(1<<12, 16)) })
}

// TestRegistryConformance drives every registered policy family through
// the battery at two geometries (one-word and multi-word lines), so a
// family added to the registry is conformance-checked automatically.
func TestRegistryConformance(t *testing.T) {
	for _, geom := range []cache.Geometry{cache.DM(1<<13, 4), cache.DM(1<<12, 16)} {
		geom := geom
		t.Run(geom.String(), func(t *testing.T) {
			CheckRegistry(t, geom, Options{Streams: 3, Refs: 2000})
		})
	}
}

// TestBatchDifferential pins the BatchAccess fast path against scalar
// Access for every registered policy spec: identical Stats, deltas, and
// Extras under ragged chunking, and identical policy.Window
// measurements with warmup boundaries landing mid-batch.
func TestBatchDifferential(t *testing.T) {
	for _, geom := range []cache.Geometry{cache.DM(1<<13, 4), cache.DM(1<<12, 16)} {
		geom := geom
		t.Run(geom.String(), func(t *testing.T) {
			CheckBatchRegistry(t, geom, Options{Streams: 3})
		})
	}
}

// wideColumn is the 1–512 KiB size axis of the `columns` benchmark
// workload: ten members, nine set bits between the smallest and the
// largest.
var wideColumn = []uint64{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19}

// TestMultisimDifferential pins the single-pass column kernels
// (internal/multisim, DESIGN.md §15) against per-cell simulation for
// every registered policy spec across power-of-two size columns — short
// ones at one-word and multi-word line sizes, the wide column the
// benchmark runs at 4 and 64 B lines, and an unsorted column that
// repeats a size — and asserts ineligible families report themselves
// so, falling back to the per-cell path. The line=4 case's streams are
// long enough that the chunk cycle reaches a whole cache.BatchChunk.
func TestMultisimDifferential(t *testing.T) {
	cases := []struct {
		name  string
		line  uint64
		sizes []uint64
		refs  int
	}{
		{"line=4", 4, []uint64{1 << 11, 1 << 12, 1 << 13, 1 << 14}, 1 + 7 + 501 + 4096 + cache.BatchChunk + 3000},
		{"line=16", 16, []uint64{1 << 12, 1 << 13, 1 << 15}, 0},
		{"wide/line=4", 4, wideColumn, 0},
		{"wide/line=64", 64, wideColumn, 0},
		{"unsorted-repeat/line=8", 8, []uint64{1 << 14, 1 << 11, 1 << 14, 1 << 12, 1 << 11}, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			CheckMultisimRegistry(t, c.line, c.sizes, Options{Streams: 3, Refs: c.refs})
		})
	}
}

// TestColumnStreamSpansColumn guards the wide battery against vacuity:
// on columnStream's streams, per-cell direct-mapped hits rise at every
// step of the 1–512 KiB column, so the first hitting member ranges over
// the whole column and each member's misses are exercised.
func TestColumnStreamSpansColumn(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		refs := columnStream(seed, 6000, wideColumn)
		prev := uint64(0)
		for _, size := range wideColumn {
			sim := cache.MustDirectMapped(cache.DM(size, 4))
			for i := range refs {
				sim.Access(refs[i].Addr)
			}
			if hits := sim.Stats().Hits; hits <= prev {
				t.Errorf("seed %d: %d hits at %d bytes, not above %d at half the size", seed, hits, size, prev)
			} else {
				prev = hits
			}
		}
	}
}

// premiseCases are the geometries the early-out premise tests check at
// S and 2S: one-word lines at one and two ways, and multi-word lines at
// four.
var premiseCases = []struct {
	line, size uint64
	ways       int
}{
	{4, 1 << 12, 1},
	{4, 1 << 12, 2},
	{16, 1 << 13, 4},
}

// TestStackProperty asserts Mattson inclusion for per-cell LRU: on
// randomized conflict-heavy streams, every hit at size S is a hit at
// size 2S (fixed line and ways), checked reference by reference with
// independent per-cell simulators. No column kernel rests on it; it
// pins the per-cell LRU simulator against a property it must have.
func TestStackProperty(t *testing.T) {
	for _, c := range premiseCases {
		c := c
		t.Run(fmt.Sprintf("line=%d/size=%d/ways=%d", c.line, c.size, c.ways), func(t *testing.T) {
			CheckStackProperty(t, c.line, c.size, c.ways, Options{Streams: 3})
		})
	}
}

// TestMRAProperty asserts the residency property the LRU and FIFO
// column kernels' early-out rests on: on randomized streams, every
// reference whose block is its set's most recently accessed block at
// size S hits at S and at 2S and is the most recently accessed block of
// its set at 2S (fixed line and ways), checked reference by reference
// with independent per-cell simulators of each family.
func TestMRAProperty(t *testing.T) {
	for _, c := range premiseCases {
		c := c
		t.Run(fmt.Sprintf("line=%d/size=%d/ways=%d", c.line, c.size, c.ways), func(t *testing.T) {
			for _, family := range []string{"fifo", "lru"} {
				t.Run(family, func(t *testing.T) {
					CheckMRAProperty(t, family, c.line, c.size, c.ways, Options{Streams: 3})
				})
			}
		})
	}
}
