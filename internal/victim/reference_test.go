package victim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
)

// The reference model: the original victim cache, kept verbatim (up to
// names) as the oracle Cache must match. It indexes with geom.Block and
// % nsets, and keeps a valid flag and a use stamp per buffer slot,
// advancing a clock per access; an insertion takes the first invalid
// slot, else the oldest stamp. Cache keeps its buffer in recency order
// instead.

type refEntry struct {
	block uint64
	valid bool
	stamp uint64
}

type refCache struct {
	geom       cache.Geometry
	tags       []uint64
	valid      []bool
	victims    []refEntry
	clock      uint64
	stats      cache.Stats
	victimHits uint64
}

func newRefCache(geom cache.Geometry, entries int) *refCache {
	geom.Ways = 1
	n := geom.Sets()
	return &refCache{
		geom:    geom,
		tags:    make([]uint64, n),
		valid:   make([]bool, n),
		victims: make([]refEntry, entries),
	}
}

func (c *refCache) Access(addr uint64) cache.Result {
	c.clock++
	block := c.geom.Block(addr)
	set := block % uint64(len(c.tags))
	if c.valid[set] && c.tags[set] == block {
		c.stats.Record(cache.Hit, false)
		return cache.Hit
	}
	for i := range c.victims {
		v := &c.victims[i]
		if v.valid && v.block == block {
			if c.valid[set] {
				v.block = c.tags[set]
				v.stamp = c.clock
			} else {
				v.valid = false
			}
			c.tags[set] = block
			c.valid[set] = true
			c.victimHits++
			c.stats.Record(cache.Hit, false)
			return cache.Hit
		}
	}
	evicted := c.valid[set]
	if evicted {
		c.insertVictim(c.tags[set])
	}
	c.tags[set] = block
	c.valid[set] = true
	c.stats.Record(cache.MissFill, evicted)
	return cache.MissFill
}

func (c *refCache) insertVictim(block uint64) {
	lru := 0
	for i := range c.victims {
		if !c.victims[i].valid {
			lru = i
			break
		}
		if c.victims[i].stamp < c.victims[lru].stamp {
			lru = i
		}
	}
	c.victims[lru] = refEntry{block: block, valid: true, stamp: c.clock}
}

func (c *refCache) Contains(addr uint64) bool {
	block := c.geom.Block(addr)
	set := block % uint64(len(c.tags))
	if c.valid[set] && c.tags[set] == block {
		return true
	}
	for i := range c.victims {
		if c.victims[i].valid && c.victims[i].block == block {
			return true
		}
	}
	return false
}

// TestMatchesReference drives Cache and the reference model with the
// same random references at 1, 2, 4 and 8 buffer entries and 4 and
// 16 B lines: every Access result, the Stats and victim-hit count after
// each reference, and every Contains answer must be identical.
func TestMatchesReference(t *testing.T) {
	for _, line := range []uint64{4, 16} {
		for _, entries := range []int{1, 2, 4, 8} {
			geom := cache.DM(1<<8, line)
			t.Run(fmt.Sprintf("%s/entries=%d", geom, entries), func(t *testing.T) {
				got := Must(geom, entries)
				want := newRefCache(geom, entries)
				rng := rand.New(rand.NewSource(int64(entries)))
				for step := 0; step < 20000; step++ {
					// Sixteen blocks per line of the cache, weighted
					// toward a few sets, so conflicts exceed the buffer.
					addr := uint64(rng.Intn(16))*geom.Size + uint64(rng.Intn(4))*line + uint64(rng.Intn(int(line)))
					if g, w := got.Access(addr), want.Access(addr); g != w {
						t.Fatalf("step %d: Access(%#x) = %v, reference %v", step, addr, g, w)
					}
					if got.Stats() != want.stats || got.victimHits != want.victimHits {
						t.Fatalf("step %d: stats %+v victim hits %d, reference %+v %d",
							step, got.Stats(), got.victimHits, want.stats, want.victimHits)
					}
					probe := uint64(rng.Intn(16))*geom.Size + uint64(rng.Intn(4))*line
					if g, w := got.Contains(probe), want.Contains(probe); g != w {
						t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, probe, g, w)
					}
				}
				if want.victimHits == 0 || want.stats.Evictions == 0 {
					t.Fatalf("no victim hits or evictions (%d, %+v); the check is vacuous", want.victimHits, want.stats)
				}
			})
		}
	}
}
