package cache

import (
	"fmt"
	"math/rand"
)

// Policy selects the victim way within a set on a fill.
type Policy uint8

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// RandomRepl evicts a uniformly random way.
	RandomRepl
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case RandomRepl:
		return "random"
	default:
		return "unknown"
	}
}

type way struct {
	tag   uint64
	valid bool
	stamp uint64 // LRU: last use; FIFO: fill time
}

// SetAssoc is an n-way set-associative cache with a selectable replacement
// policy. The paper's motivation compares direct-mapped caches against
// these: lower miss rate, higher access time.
type SetAssoc struct {
	geom   Geometry
	policy Policy
	sets   [][]way
	clock  uint64
	rng    *rand.Rand
	stats  Stats

	// OnEvict, if non-nil, receives the block number of each displaced
	// valid block.
	OnEvict func(block uint64)
}

// NewSetAssoc returns a set-associative cache. seed feeds the RandomRepl
// policy (ignored otherwise).
func NewSetAssoc(geom Geometry, policy Policy, seed int64) (*SetAssoc, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if policy > RandomRepl {
		return nil, fmt.Errorf("cache: unknown policy %d", policy)
	}
	nsets := geom.Sets()
	sets := make([][]way, nsets)
	ways := geom.WaysPerSet()
	backing := make([]way, int(nsets)*ways)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	return &SetAssoc{
		geom:   geom,
		policy: policy,
		sets:   sets,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// MustSetAssoc is NewSetAssoc but panics on error.
func MustSetAssoc(geom Geometry, policy Policy, seed int64) *SetAssoc {
	c, err := NewSetAssoc(geom, policy, seed)
	if err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	return c
}

// Access references addr, filling on a miss.
func (c *SetAssoc) Access(addr uint64) Result {
	c.clock++
	set := c.sets[c.geom.Set(addr)]
	tag := c.geom.Tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if c.policy == LRU {
				set[i].stamp = c.clock
			}
			c.stats.Record(Hit, false)
			return Hit
		}
	}
	evicted := c.fill(set, tag)
	c.stats.Record(MissFill, evicted)
	return MissFill
}

// fill places tag in the set, returning whether a valid way was displaced.
func (c *SetAssoc) fill(set []way, tag uint64) bool {
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	evicted := false
	if victim < 0 {
		switch c.policy {
		case LRU, FIFO:
			victim = 0
			for i := 1; i < len(set); i++ {
				if set[i].stamp < set[victim].stamp {
					victim = i
				}
			}
		case RandomRepl:
			victim = c.rng.Intn(len(set))
		}
		evicted = true
		if c.OnEvict != nil {
			c.OnEvict(set[victim].tag)
		}
	}
	set[victim] = way{tag: tag, valid: true, stamp: c.clock}
	return evicted
}

// Contains reports whether addr's block is resident (no stats or LRU side
// effects).
func (c *SetAssoc) Contains(addr uint64) bool {
	set := c.sets[c.geom.Set(addr)]
	tag := c.geom.Tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts addr's block without counting an access, reporting whether
// a valid block was displaced.
func (c *SetAssoc) Fill(addr uint64) bool {
	c.clock++
	set := c.sets[c.geom.Set(addr)]
	tag := c.geom.Tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return false
		}
	}
	return c.fill(set, tag)
}

// Stats returns the accumulated counters.
func (c *SetAssoc) Stats() Stats { return c.stats }

// Geometry returns the cache's shape.
func (c *SetAssoc) Geometry() Geometry { return c.geom }

// Policy returns the replacement policy.
func (c *SetAssoc) ReplacementPolicy() Policy { return c.policy }

// Reset clears contents and counters (the replacement RNG is not reseeded).
func (c *SetAssoc) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = way{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
}
