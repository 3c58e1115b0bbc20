package multisim

import (
	"math/bits"

	"repro/internal/engine"
	"repro/internal/trace"
)

// LRU is the least-recently-used size column at a fixed way count. It
// takes FIFO's MRA walk (DEW, arXiv:1506.03181): a set's most recently
// accessed (MRA) block is its most recently used way, an LRU hit on it
// changes no state, and nothing on the column path bypasses or
// invalidates, so with nested power-of-two set counts a block that is
// MRA at size S is MRA at every larger member. The kernel walks members
// ascending and stops at the first whose MRU way holds the block: the
// reference is counted once there, in hitFrom[kmin], as in DM and FIFO,
// and only the members below it search their ways, rotating a hit to
// the front or inserting a miss there. Outcomes adds the hitFrom prefix
// sum to each member's own non-MRA hits.
//
// Victim choice needs no clock. LRU fills a free way, else evicts the
// least recently used one; with no invalidation a set's valid ways only
// grow, so a count says whether one is free, and recency order puts the
// least recently used way last. Ordered ways and a count per set are
// cache.SetAssoc's LRU layout too.
type LRU struct {
	lineShift int
	ways      uint64
	members   []lruMember // ascending by size
	order     []int
	// hitFrom[k] counts references whose smallest MRA member is k;
	// hitFrom[len(members)] counts references no member had as MRA.
	hitFrom  []uint64
	accesses uint64
}

type lruMember struct {
	setMask uint64
	valid   []uint32 // per set: the count of valid ways, at most ways
	// tags is flat (set-major, ways contiguous), the cache.SetAssoc
	// layout; a set's ways [0, valid) hold its blocks most recently used
	// first.
	tags   []uint64
	hits   uint64 // hits found by a way search, below the MRA walk's stop
	evicts uint64
}

// NewLRU builds an LRU column over the given sizes (any order,
// duplicates allowed); Outcomes reports in the same order.
func NewLRU(line uint64, sizes []uint64, ways int) (*LRU, error) {
	if err := Validate(line, sizes, ways); err != nil {
		return nil, err
	}
	c := &LRU{
		lineShift: bits.TrailingZeros64(line),
		ways:      uint64(ways),
		members:   make([]lruMember, len(sizes)),
		order:     ascendingSizes(sizes),
		hitFrom:   make([]uint64, len(sizes)+1),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / (line * uint64(ways))
		c.members[k] = lruMember{
			setMask: nsets - 1,
			valid:   make([]uint32, nsets),
			tags:    make([]uint64, nsets*uint64(ways)),
		}
	}
	return c, nil
}

// Batch advances every member over the chunk, mirroring
// cache.SetAssoc's LRU semantics: a hit moves the block to the front of
// its set, and a miss inserts it there, filling a way while the set has
// invalid ones and otherwise evicting the last. The walk stops at the
// first member whose MRU way is the block (see the type comment), so
// only the members below it do any work.
//
//dynexcheck:hot
func (c *LRU) Batch(refs []trace.Ref) {
	members := c.members
	hitFrom := c.hitFrom
	shift := c.lineShift
	ways := c.ways
	for i := range refs {
		block := refs[i].Addr >> shift
		k := 0
		for ; k < len(members); k++ {
			m := &members[k]
			set := block & m.setMask
			valid := uint64(m.valid[set])
			base := set * ways
			tags := m.tags[base : base+ways : base+ways]
			if valid != 0 && tags[0] == block {
				break
			}
			// j ends as the way to vacate: the block's own on a hit, the
			// first invalid way on a fill, else the last (the LRU
			// victim). Shifting ways [0, j) down one frees the front.
			j := uint64(1)
			for j < valid && tags[j] != block {
				j++
			}
			switch {
			case j < valid:
				m.hits++
			case valid < ways:
				j = valid
				m.valid[set] = uint32(valid + 1)
			default:
				j = ways - 1
				m.evicts++
			}
			for ; j > 0; j-- {
				tags[j] = tags[j-1]
			}
			tags[0] = block
		}
		hitFrom[k]++
	}
	c.accesses += uint64(len(refs))
}

// Outcomes returns cumulative per-member stats in constructor size
// order: member k's hits are the references counted at or below it by
// the MRA walk plus its own way-search hits.
func (c *LRU) Outcomes() []engine.ColumnOutcome {
	return firstHitOutcomes(c.accesses, c.hitFrom, c.order, func(k int) (uint64, uint64) {
		return c.members[k].hits, c.members[k].evicts
	})
}
