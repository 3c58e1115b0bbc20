// Package victim implements Jouppi's victim cache [Jou90], the related-
// work hardware alternative the paper compares dynamic exclusion against:
// a small fully-associative buffer that catches blocks recently evicted
// from a direct-mapped cache, so a ping-ponging pair of conflicting blocks
// costs swaps instead of misses.
//
// The paper's observation (§2): victim caches work well when few blocks
// conflict (typical of data), while instruction streams often have more
// conflicting blocks than a small victim cache can hold — which is where
// dynamic exclusion is most effective. The ablation experiments reproduce
// that comparison.
package victim

import (
	"fmt"

	"repro/internal/cache"
)

// Cache is a direct-mapped cache backed by a small fully-associative
// victim buffer. A reference that misses the main cache but hits the
// buffer swaps the two blocks and counts as a hit (it did not go to the
// next memory level).
type Cache struct {
	geom      cache.Geometry
	lineShift uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	// victims[:held] are the buffer's blocks, most recently placed
	// first, so the last is the least recently used entry that a full
	// buffer drops next.
	victims []uint64
	held    int
	stats   cache.Stats

	victimHits uint64 // references served by a swap with the buffer
}

// New returns a direct-mapped cache of the given geometry with a
// fully-associative victim buffer of `entries` lines (Jouppi evaluated
// 1–15; 4 is typical).
func New(geom cache.Geometry, entries int) (*Cache, error) {
	geom.Ways = 1
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if entries < 1 {
		return nil, fmt.Errorf("victim: need at least one entry, got %d", entries)
	}
	lineShift, setMask := cache.IndexShifts(geom)
	n := geom.Sets()
	return &Cache{
		geom:      geom,
		lineShift: lineShift,
		setMask:   setMask,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		victims:   make([]uint64, entries),
	}, nil
}

// Must is New but panics on error.
func Must(geom cache.Geometry, entries int) *Cache {
	c, err := New(geom, entries)
	if err != nil {
		panic(err)
	}
	return c
}

// Access references addr.
//
//dynexcheck:hot
func (c *Cache) Access(addr uint64) cache.Result {
	block := addr >> c.lineShift
	set := block & c.setMask
	if c.valid[set] && c.tags[set] == block {
		c.stats.Record(cache.Hit, false)
		return cache.Hit
	}
	// Probe the victim buffer.
	for i, v := range c.victims[:c.held] {
		if v == block {
			// Swap: the requested block moves to the main cache, the
			// displaced resident takes its buffer entry as the most
			// recently placed. The line is valid: the buffer only holds
			// blocks displaced from their own line, and a line never
			// empties again.
			c.place(i, c.tags[set])
			c.tags[set] = block
			c.victimHits++
			c.stats.Record(cache.Hit, false)
			return cache.Hit
		}
	}
	// True miss: displace the resident into the buffer, fill from below.
	evicted := c.valid[set]
	if evicted {
		if c.held < len(c.victims) {
			c.held++
		}
		c.place(c.held-1, c.tags[set])
	}
	c.tags[set] = block
	c.valid[set] = true
	c.stats.Record(cache.MissFill, evicted)
	return cache.MissFill
}

// place drops buffer entry i, moves the entries before it down one and
// puts block first.
func (c *Cache) place(i int, block uint64) {
	v := c.victims
	for ; i > 0; i-- {
		v[i] = v[i-1]
	}
	v[0] = block
}

// Contains reports whether addr's block is in the main cache or the
// buffer.
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.lineShift
	set := block & c.setMask
	if c.valid[set] && c.tags[set] == block {
		return true
	}
	for _, v := range c.victims[:c.held] {
		if v == block {
			return true
		}
	}
	return false
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() cache.Stats { return c.stats }

// Extras returns the victim-buffer counter in the uniform cache.Counter
// shape.
func (c *Cache) Extras() []cache.Counter {
	return []cache.Counter{{Name: "victim_hits", Value: c.victimHits}}
}

// Geometry returns the main cache's shape.
func (c *Cache) Geometry() cache.Geometry { return c.geom }
