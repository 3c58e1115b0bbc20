// Package static implements the profile-guided *static* exclusion
// baseline the paper positions itself against ([McF89, McF91b], §2):
// given an execution profile, a compiler can keep frequent instructions
// in the cache and exclude infrequent ones by address. Dynamic exclusion
// reaches a similar decision in hardware, with no profile and no
// recompilation — the comparison experiment quantifies how close.
//
// The model: a training run counts executions per cache block; for every
// cache set, blocks whose execution count falls below a fraction of the
// set's hottest block are marked excluded-by-address. Evaluation then
// runs a direct-mapped cache that bypasses the marked blocks.
package static

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Profile counts block executions — and, when trained through the cache
// simulation (Train), per-block hits and fills in a conventional
// direct-mapped cache — at a fixed geometry.
type Profile struct {
	geom      cache.Geometry
	lineShift uint // cache.IndexShifts, so Add never divides
	counts    map[uint64]uint64
	hits      map[uint64]uint64
	fills     map[uint64]uint64
	sim       *cache.DirectMapped
	total     uint64
}

// NewProfile returns an empty profile for the geometry (Ways forced 1).
func NewProfile(geom cache.Geometry) (*Profile, error) {
	geom.Ways = 1
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	sim, err := cache.NewDirectMapped(geom)
	if err != nil {
		return nil, err
	}
	lineShift, _ := cache.IndexShifts(geom)
	return &Profile{
		geom:      geom,
		lineShift: lineShift,
		counts:    map[uint64]uint64{},
		hits:      map[uint64]uint64{},
		fills:     map[uint64]uint64{},
		sim:       sim,
	}, nil
}

// Add records one reference, running it through the training cache so
// the profile learns which blocks actually hit.
func (p *Profile) Add(addr uint64) {
	block := addr >> p.lineShift
	p.counts[block]++
	p.total++
	switch p.sim.Access(addr) {
	case cache.Hit:
		p.hits[block]++
	case cache.MissFill:
		p.fills[block]++
	case cache.MissBypass:
		// The training cache is a conventional direct-mapped cache; it
		// never bypasses. Covered so the outcome switch stays exhaustive.
	}
}

// Train records an entire reference slice.
func (p *Profile) Train(refs []trace.Ref) {
	for _, r := range refs {
		p.Add(r.Addr)
	}
}

// Total returns the number of profiled references.
func (p *Profile) Total() uint64 { return p.total }

// Blocks returns the number of distinct blocks seen.
func (p *Profile) Blocks() int { return len(p.counts) }

// Exclusions derives the excluded-by-address block set: within each cache
// set, a block is excluded when its execution count is below alpha times
// the count of the set's hottest block (0 < alpha <= 1). Unprofiled
// blocks are implicitly excluded only if alpha > 0 and the set has a
// profiled resident; blocks alone in their set are never excluded.
func (p *Profile) Exclusions(alpha float64) (map[uint64]bool, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("static: alpha %v out of (0,1]", alpha)
	}
	// Hottest count per set.
	hottest := map[uint64]uint64{}
	sets := p.geom.Sets()
	for b, c := range p.counts {
		set := b % sets
		if c > hottest[set] {
			//dynexcheck:allow determinism per-set max is order-independent
			hottest[set] = c
		}
	}
	excluded := map[uint64]bool{}
	for b, c := range p.counts {
		set := b % sets
		if float64(c) < alpha*float64(hottest[set]) {
			//dynexcheck:allow determinism keyed by the range key; each block is decided independently
			excluded[b] = true
		}
	}
	return excluded, nil
}

// NetExclusions derives exclusions from the training cache simulation:
// a block is excluded when, in the training run, it displaced other
// blocks more often than it hit (fills > hits) — caching it cost more
// than it earned. The hottest block of each set is always kept (so a set
// whose members all thrash retains one resident, matching the optimal
// policy's choice). This is the stronger profile rule; the count-based
// Exclusions is the naive variant.
func (p *Profile) NetExclusions() map[uint64]bool {
	sets := p.geom.Sets()
	hottest := map[uint64]uint64{}
	hotBlock := map[uint64]uint64{}
	for b, c := range p.counts {
		set := b % sets
		// Ties break toward the lower block number so the result does not
		// depend on map iteration order.
		if prev, ok := hotBlock[set]; !ok || c > hottest[set] || (c == hottest[set] && b < prev) {
			//dynexcheck:allow determinism per-set max with lowest-block tie-break; order-independent
			hottest[set] = c
			//dynexcheck:allow determinism same tie-broken per-set max as the line above
			hotBlock[set] = b
		}
	}
	excluded := map[uint64]bool{}
	for b := range p.counts {
		set := b % sets
		if b == hotBlock[set] {
			continue
		}
		if p.fills[b] > p.hits[b] {
			//dynexcheck:allow determinism keyed by the range key; each block is decided independently
			excluded[b] = true
		}
	}
	return excluded
}

// Cache is a direct-mapped cache that statically bypasses an
// excluded-by-address block set.
type Cache struct {
	geom cache.Geometry
	// lineShift and setMask index by block number (cache.IndexShifts),
	// taken once here so no reference divides.
	lineShift uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	excluded  map[uint64]bool
	stats     cache.Stats
}

// NewCache returns a static-exclusion cache. excluded maps block numbers
// (addr / lineSize) to exclusion; nil behaves like a conventional cache.
func NewCache(geom cache.Geometry, excluded map[uint64]bool) (*Cache, error) {
	geom.Ways = 1
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	lineShift, setMask := cache.IndexShifts(geom)
	return &Cache{
		geom:      geom,
		lineShift: lineShift,
		setMask:   setMask,
		tags:      make([]uint64, geom.Sets()),
		valid:     make([]bool, geom.Sets()),
		excluded:  excluded,
	}, nil
}

// Access references addr; excluded blocks always bypass.
func (c *Cache) Access(addr uint64) cache.Result {
	block := addr >> c.lineShift
	set := block & c.setMask
	if c.valid[set] && c.tags[set] == block {
		c.stats.Record(cache.Hit, false)
		return cache.Hit
	}
	if c.excluded[block] {
		c.stats.Record(cache.MissBypass, false)
		return cache.MissBypass
	}
	evicted := c.valid[set]
	c.tags[set] = block
	c.valid[set] = true
	c.stats.Record(cache.MissFill, evicted)
	return cache.MissFill
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() cache.Stats { return c.stats }

// Geometry returns the cache shape.
func (c *Cache) Geometry() cache.Geometry { return c.geom }

// Excluded returns the number of excluded blocks.
func (c *Cache) Excluded() int { return len(c.excluded) }
