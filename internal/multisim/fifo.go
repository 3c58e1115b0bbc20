package multisim

import (
	"math/bits"

	"repro/internal/engine"
	"repro/internal/trace"
)

// FIFO is the first-in-first-out size column at a fixed way count.
//
// FIFO has no inclusion property — insertion order, not recency, picks
// victims, so a non-MRA hit at size S can miss at 2S — but MRA
// residency nests (DEW, arXiv:1506.03181). A set's most recently
// accessed (MRA) block is always resident: a FIFO hit changes no state,
// and nothing on the column path bypasses or invalidates. With nested
// power-of-two set counts, every reference to a set at 2S also maps to
// its parent set at S, so a block that is MRA at size S is MRA at every
// larger member. The kernel walks members ascending and stops at the
// first whose MRA equals the block: the reference is counted once
// there, in hitFrom[kmin], as in DM and LRU, and only the members below
// it look up their ways, fill on a miss and set their MRA. Outcomes
// adds the hitFrom prefix sum to each member's own non-MRA hits.
//
// Victim choice needs no clock. With no invalidation, FIFO fills a set
// in way order and then replaces round-robin, so one wave counter per
// set names the next victim, as in cache.SetAssoc.
type FIFO struct {
	lineShift int
	ways      uint64
	members   []fifoMember // ascending by size
	order     []int
	// hitFrom[k] counts references whose smallest MRA member is k;
	// hitFrom[len(members)] counts references no member had as MRA.
	hitFrom  []uint64
	accesses uint64
}

type fifoMember struct {
	setMask uint64
	mra     []uint64 // per set: the most recently accessed block, once wave > 0
	// wave[set] counts the set's fills while it has invalid ways, so
	// ways [0, wave) are valid and the next fill takes way wave; once
	// the set is full it cycles through [ways, 2*ways), and the next
	// fill evicts way wave-ways. (2*ways fits: a set of 2^31 ways would
	// need 16 GiB of tags.)
	wave []uint32
	// tags is flat (set-major, ways contiguous), the cache.SetAssoc
	// layout.
	tags   []uint64
	hits   uint64 // hits found by a way lookup, below the MRA walk's stop
	evicts uint64
}

// NewFIFO builds a FIFO column over the given sizes (any order,
// duplicates allowed); Outcomes reports in the same order.
func NewFIFO(line uint64, sizes []uint64, ways int) (*FIFO, error) {
	if err := Validate(line, sizes, ways); err != nil {
		return nil, err
	}
	c := &FIFO{
		lineShift: bits.TrailingZeros64(line),
		ways:      uint64(ways),
		members:   make([]fifoMember, len(sizes)),
		order:     ascendingSizes(sizes),
		hitFrom:   make([]uint64, len(sizes)+1),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / (line * uint64(ways))
		c.members[k] = fifoMember{
			setMask: nsets - 1,
			mra:     make([]uint64, nsets),
			wave:    make([]uint32, nsets),
			tags:    make([]uint64, nsets*uint64(ways)),
		}
	}
	return c, nil
}

// Batch advances every member over the chunk, mirroring
// cache.SetAssoc's FIFO semantics: a hit touches nothing but the MRA
// block, and a miss fills the next way in the set's wave, evicting once
// the set is full. The walk stops at the first member whose MRA is the
// block (see the type comment), so only the members below it do any
// work.
//
//dynexcheck:hot
func (c *FIFO) Batch(refs []trace.Ref) {
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
			if m.mra[set] == block && m.wave[set] != 0 {
				break
			}
			m.mra[set] = block
			wave := uint64(m.wave[set])
			base := set * ways
			tags := m.tags[base : base+ways : base+ways]
			hit := false
			for _, tag := range tags[:min(wave, ways)] {
				if tag == block {
					hit = true
					break
				}
			}
			if hit {
				m.hits++
				continue
			}
			if wave < ways {
				tags[wave] = block
				wave++
			} else {
				tags[wave-ways] = block
				m.evicts++
				if wave++; wave == 2*ways {
					wave = ways
				}
			}
			m.wave[set] = uint32(wave)
		}
		hitFrom[k]++
	}
	c.accesses += uint64(len(refs))
}

// Outcomes returns cumulative per-member stats in constructor size
// order: member k's hits are the references counted at or below it by
// the MRA walk plus its own way-lookup hits.
func (c *FIFO) Outcomes() []engine.ColumnOutcome {
	return firstHitOutcomes(c.accesses, c.hitFrom, c.order, func(k int) (uint64, uint64) {
		return c.members[k].hits, c.members[k].evicts
	})
}
