package multisim

import (
	"math/bits"

	"repro/internal/engine"
	"repro/internal/trace"
)

// DM is the direct-mapped size column: every power-of-two size of a
// dm cell sharing one line size, simulated in a single pass.
type DM struct {
	lineShift int
	members   []dmMember // ascending by size
	order     []int      // order[k]: member k's position in the constructor's sizes
	// hitFrom[k] counts references whose smallest hitting member is k;
	// hitFrom[len(members)] counts references every member missed.
	hitFrom  []uint64
	accesses uint64
}

type dmMember struct {
	setMask uint64
	tags    []uint64
	valid   []bool
	evicts  uint64
}

// NewDM builds a direct-mapped column over the given sizes (any order,
// duplicates allowed); Outcomes reports in the same order.
func NewDM(line uint64, sizes []uint64) (*DM, error) {
	if err := Validate(line, sizes, 1); err != nil {
		return nil, err
	}
	c := &DM{
		lineShift: bits.TrailingZeros64(line),
		members:   make([]dmMember, len(sizes)),
		order:     ascendingSizes(sizes),
		hitFrom:   make([]uint64, len(sizes)+1),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / line
		c.members[k] = dmMember{
			setMask: nsets - 1,
			tags:    make([]uint64, nsets),
			valid:   make([]bool, nsets),
		}
	}
	return c, nil
}

// Batch advances every member over the chunk. Direct-mapped bit
// selection is 1-way LRU, so inclusion holds across power-of-two sizes:
// the probe walks members ascending, handles misses (fill + possible
// eviction) until the first hit, and counts the reference once, at that
// member. Every larger member is a hit with no state change (a
// direct-mapped hit mutates nothing), which Outcomes recovers by prefix
// sum. The conformance column battery pins the equivalence per cell.
//
//dynexcheck:hot
func (c *DM) Batch(refs []trace.Ref) {
	members := c.members
	hitFrom := c.hitFrom
	shift := c.lineShift
	for i := range refs {
		block := refs[i].Addr >> shift
		k := 0
		for ; k < len(members); k++ {
			m := &members[k]
			set := block & m.setMask
			if m.valid[set] && m.tags[set] == block {
				break
			}
			if m.valid[set] {
				m.evicts++
			} else {
				m.valid[set] = true
			}
			m.tags[set] = block
		}
		hitFrom[k]++
	}
	c.accesses += uint64(len(refs))
}

// Outcomes returns cumulative per-member stats in constructor size
// order: member k's hits are the references counted at or below it.
func (c *DM) Outcomes() []engine.ColumnOutcome {
	return firstHitOutcomes(c.accesses, c.hitFrom, c.order, func(k int) (uint64, uint64) {
		return 0, c.members[k].evicts
	})
}
