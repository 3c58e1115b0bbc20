package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
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

// SetAssoc is an n-way set-associative cache with a selectable replacement
// policy. The paper's motivation compares direct-mapped caches against
// these: lower miss rate, higher access time.
//
// Victim choice needs no clock. With no invalidation a set's valid ways
// only grow, so a count per set says which are valid, and way order
// carries the rest: LRU keeps a set's ways most recently used first, so
// the last is its victim, while FIFO and random keep them in fill
// position, where FIFO's oldest fill is the next way round. A FIFO set
// also keeps the block it last took, which is always resident: a
// reference to it is a hit that changes nothing, so the FIFO batch loop
// needs no way lookup for it, as LRU's needs none for way 0.
type SetAssoc struct {
	geom      Geometry
	policy    Policy
	lineShift uint
	setMask   uint64
	ways      uint64
	// tags is flat and set-major: set s holds ways [s*ways, (s+1)*ways).
	tags []uint64
	// wave[s] counts set s's valid ways while it fills, so ways
	// [0, wave) are valid and the next fill takes way wave. Once the set
	// is full, LRU and random hold it at ways, and FIFO cycles it
	// through [ways, 2*ways): its next fill evicts way wave-ways. (2*ways
	// fits: a set of 2^31 ways would need 16 GiB of tags.)
	wave []uint32
	// mra[s] is, for FIFO, the block set s last took (by Access or the
	// batch loop), resident whenever wave[s] > 0. Other policies leave
	// it nil.
	mra   []uint64
	rng   *rand.Rand // RandomRepl only
	stats Stats

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
	lineShift, setMask := IndexShifts(geom)
	nsets := geom.Sets()
	ways := uint64(geom.WaysPerSet())
	c := &SetAssoc{
		geom:      geom,
		policy:    policy,
		lineShift: lineShift,
		setMask:   setMask,
		ways:      ways,
		tags:      make([]uint64, nsets*ways),
		wave:      make([]uint32, nsets),
	}
	if policy == FIFO {
		c.mra = make([]uint64, nsets)
	}
	if policy == RandomRepl {
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c, nil
}

// MustSetAssoc is NewSetAssoc but panics on error.
func MustSetAssoc(geom Geometry, policy Policy, seed int64) *SetAssoc {
	c, err := NewSetAssoc(geom, policy, seed)
	if err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	return c
}

// find returns the way of set that holds block, if one does.
func (c *SetAssoc) find(set, block uint64) (way uint64, ok bool) {
	base := set * c.ways
	valid := min(uint64(c.wave[set]), c.ways)
	for j, tag := range c.tags[base : base+valid] {
		if tag == block {
			return uint64(j), true
		}
	}
	return 0, false
}

// toFront moves ways [0, j) of an LRU set down one and puts block in way
// 0, its most recently used.
func toFront(ways []uint64, j, block uint64) {
	for ; j > 0; j-- {
		ways[j] = ways[j-1]
	}
	ways[0] = block
}

// Access references addr, filling on a miss.
//
//dynexcheck:hot
func (c *SetAssoc) Access(addr uint64) Result {
	block := addr >> c.lineShift
	set := block & c.setMask
	if j, ok := c.find(set, block); ok {
		if c.policy == LRU {
			toFront(c.tags[set*c.ways:], j, block)
		} else if c.mra != nil {
			c.mra[set] = block
		}
		c.stats.Record(Hit, false)
		return Hit
	}
	evicted := c.fill(set, block)
	c.stats.Record(MissFill, evicted)
	return MissFill
}

// fill places block, which set does not hold, reporting whether a valid
// way was displaced. The OnEvict hook sees the displaced block before
// its way is overwritten. A FIFO set's MRA word moves to block, so it
// never names the block a fill displaced.
func (c *SetAssoc) fill(set, block uint64) bool {
	if c.mra != nil {
		c.mra[set] = block
	}
	ways := c.ways
	base := set * ways
	st := c.tags[base : base+ways : base+ways]
	wave := uint64(c.wave[set])
	if wave < ways {
		if c.policy == LRU {
			toFront(st, wave, block)
		} else {
			st[wave] = block
		}
		c.wave[set] = uint32(wave + 1)
		return false
	}
	var victim uint64
	switch c.policy {
	case LRU:
		victim = ways - 1
	case FIFO:
		victim = wave - ways
		if wave++; wave == 2*ways {
			wave = ways
		}
		c.wave[set] = uint32(wave)
	case RandomRepl:
		victim = uint64(c.rng.Intn(int(ways)))
	}
	if c.OnEvict != nil {
		c.OnEvict(st[victim])
	}
	if c.policy == LRU {
		toFront(st, victim, block)
	} else {
		st[victim] = block
	}
	return true
}

// Contains reports whether addr's block is resident (no stats or LRU side
// effects).
func (c *SetAssoc) Contains(addr uint64) bool {
	block := addr >> c.lineShift
	_, ok := c.find(block&c.setMask, block)
	return ok
}

// Decode writes the block numbers of refs to dst, which must be at
// least as long, and returns them: the input AccessBlocks takes.
func (c *SetAssoc) Decode(dst []uint64, refs []trace.Ref) []uint64 {
	return DecodeBlocks(dst, refs, c.lineShift)
}

// AccessBlocks runs decoded block numbers through an LRU or FIFO cache
// in order, as Access runs addresses, and records them in Stats once
// per call. It returns the blocks that failed their set's MRA test,
// compacted to the front of blocks. A block that passes it is its
// set's most recently accessed block, a hit that changes no state; with
// the same line size and ways it is the most recently accessed block
// of its set at every larger power-of-two size too (MRA residency
// nests, DEW arXiv:1506.03181), so a size column hands only the failed
// blocks on to its next member. The cache must have no OnEvict hook and
// must not be RandomRepl: BatchAccess sends those through Access.
func (c *SetAssoc) AccessBlocks(blocks []uint64) []uint64 {
	if c.policy == LRU {
		return c.lruBlocks(blocks)
	}
	return c.fifoBlocks(blocks)
}

// lruBlocks is the LRU batch loop. A set's MRA block is way 0. Any
// other hit rotates to the front, and a miss is inserted there,
// filling a free way or dropping the last.
//
//dynexcheck:hot
func (c *SetAssoc) lruBlocks(blocks []uint64) []uint64 {
	tags, wave := c.tags, c.wave
	setMask, ways := c.setMask, c.ways
	var hits, evictions uint64
	n := 0
	for _, block := range blocks {
		set := block & setMask
		base := set * ways
		st := tags[base : base+ways : base+ways]
		w := uint64(wave[set])
		if w != 0 && st[0] == block {
			continue
		}
		blocks[n] = block
		n++
		// j ends as the way to vacate: the block's own on a hit, the
		// first free way on a fill, else the last (the LRU victim).
		j := uint64(1)
		for j < w && st[j] != block {
			j++
		}
		switch {
		case j < w:
			hits++
		case w < ways:
			j = w
			wave[set] = uint32(w + 1)
		default:
			j = ways - 1
			evictions++
		}
		toFront(st, j, block)
	}
	c.stats.Add(blockStats(len(blocks), n, hits, evictions))
	return blocks[:n]
}

// fifoBlocks is the FIFO batch loop. A hit changes nothing but the
// MRA word; a miss fills the next way in the set's wave, evicting once
// the set is full.
//
//dynexcheck:hot
func (c *SetAssoc) fifoBlocks(blocks []uint64) []uint64 {
	tags, wave, mra := c.tags, c.wave, c.mra
	setMask, ways := c.setMask, c.ways
	var hits, evictions uint64
	n := 0
	for _, block := range blocks {
		set := block & setMask
		if mra[set] == block && wave[set] != 0 {
			continue
		}
		mra[set] = block
		w := uint64(wave[set])
		blocks[n] = block
		n++
		base := set * ways
		st := tags[base : base+ways : base+ways]
		valid := min(w, ways)
		j := uint64(0)
		for j < valid && st[j] != block {
			j++
		}
		switch {
		case j < valid:
			hits++
			continue
		case w < ways:
			st[w] = block
			w++
		default:
			st[w-ways] = block
			evictions++
			if w++; w == 2*ways {
				w = ways
			}
		}
		wave[set] = uint32(w)
	}
	c.stats.Add(blockStats(len(blocks), n, hits, evictions))
	return blocks[:n]
}

// blockStats is the Stats of one set-associative batch loop call: in
// blocks went in and out of them failed the MRA test; a way lookup
// found hits of those, and the rest were fills.
func blockStats(in, out int, hits, evictions uint64) Stats {
	fills := uint64(out) - hits
	return Stats{
		Accesses:  uint64(in),
		Hits:      uint64(in-out) + hits,
		Misses:    fills,
		Fills:     fills,
		Evictions: evictions,
	}
}

// Stats returns the accumulated counters.
func (c *SetAssoc) Stats() Stats { return c.stats }

// Geometry returns the cache's shape.
func (c *SetAssoc) Geometry() Geometry { return c.geom }

// Policy returns the replacement policy.
func (c *SetAssoc) ReplacementPolicy() Policy { return c.policy }

// Reset clears contents and counters (the replacement RNG is not reseeded).
func (c *SetAssoc) Reset() {
	clear(c.tags)
	clear(c.wave)
	clear(c.mra)
	c.stats = Stats{}
}
