package multisim

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// DEConfig carries the dynamic-exclusion options a policy spec resolves
// for a column. Every member of the column shares one configuration;
// only the geometry (and therefore the per-member hit-last store
// capacity) varies down the column.
type DEConfig struct {
	// StickyMax is the sticky-counter reset value (1..255).
	StickyMax int
	// Hashed selects the hashed hit-last store; Bits is its size in
	// bits per cache line (ignored for the ideal table store).
	Hashed bool
	Bits   int
	// AssumeHit is the cold-start hit-last prediction (the store's
	// default bit).
	AssumeHit bool
	// LastLine enables the §6 last-line register, already resolved
	// against the column's line size by the caller.
	LastLine bool
}

// DE is the dynamic-exclusion size column. DE has no inclusion
// property — sticky bypasses keep a block out of a small cache while a
// larger one admits it — so every member carries full FSM state and the
// kernel advances them in lockstep off one shared block decode. The
// §6 last-line register is size-independent (it holds a block number),
// so one shared register serves the whole column, and its hits, which
// every member scores alike, are counted once; per-cell simulations
// would each compute the identical register trajectory.
type DE struct {
	lineShift   int
	stickyMax   uint8
	useLastLine bool
	lastTag     uint64
	lastValid   bool
	llHits      uint64 // last-line register hits, shared by every member
	members     []deMember
	order       []int
	accesses    uint64
}

// A member set's FSM state beyond its tag is one word: the sticky
// counter in the low byte, then the hit-last flag and the valid bit.
const (
	deSticky = 0xff
	deFlag   = 1 << 8
	deValid  = 1 << 9
)

type deMember struct {
	setMask uint64
	tags    []uint64
	state   []uint16 // deSticky | deFlag | deValid per set
	store   core.HitLastStore
	// Fills are the accesses left over: accesses = last-line hits +
	// hits + defends (each defense bypasses) + fills.
	hits    uint64
	defends uint64
	evicts  uint64
	overrid uint64
}

// NewDE builds a dynamic-exclusion column over the given sizes (any
// order, duplicates allowed); Outcomes reports in the same order.
func NewDE(cfg DEConfig, line uint64, sizes []uint64) (*DE, error) {
	if err := Validate(line, sizes, 1); err != nil {
		return nil, err
	}
	if cfg.StickyMax < 1 || cfg.StickyMax > 255 {
		return nil, fmt.Errorf("multisim: sticky max %d out of range [1, 255]", cfg.StickyMax)
	}
	c := &DE{
		lineShift:   bits.TrailingZeros64(line),
		stickyMax:   uint8(cfg.StickyMax),
		useLastLine: cfg.LastLine,
		members:     make([]deMember, len(sizes)),
		order:       ascendingSizes(sizes),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / line
		m := deMember{
			setMask: nsets - 1,
			tags:    make([]uint64, nsets),
			state:   make([]uint16, nsets),
		}
		if cfg.Hashed {
			store, err := core.NewHashedStore(int(nsets)*cfg.Bits, cfg.AssumeHit)
			if err != nil {
				return nil, fmt.Errorf("multisim: %w", err)
			}
			m.store = store
		} else {
			m.store = core.NewTableStore(cfg.AssumeHit)
		}
		c.members[k] = m
	}
	return c, nil
}

// Batch advances every member over the chunk in lockstep, mirroring
// core.(*Cache).BatchAccess transition for transition: register hit →
// tag hit (sticky refresh) → cold fill → sticky defense (bypass) →
// replacement with hit-last writeback. The conformance column battery
// pins the per-member equivalence, extras included.
//
//dynexcheck:hot
func (c *DE) Batch(refs []trace.Ref) {
	members := c.members
	shift := c.lineShift
	fresh := deValid | deFlag | uint16(c.stickyMax)
	useLastLine := c.useLastLine
	lastTag, lastValid := c.lastTag, c.lastValid
	llHits := c.llHits
	for i := range refs {
		block := refs[i].Addr >> shift

		if useLastLine {
			if lastValid && lastTag == block {
				llHits++
				continue
			}
			lastTag, lastValid = block, true
		}

		for k := range members {
			m := &members[k]
			set := block & m.setMask
			st := m.state[set]
			if st&deValid != 0 && m.tags[set] == block {
				m.state[set] = fresh
				m.hits++
				continue
			}

			if st&deValid == 0 {
				m.tags[set] = block
				m.state[set] = fresh
				continue
			}

			cost := uint16(1)
			if m.store.Lookup(block) {
				cost = 2
			}
			if st&deSticky >= cost {
				m.state[set] = st - cost
				m.defends++
				continue
			}

			m.store.Writeback(m.tags[set], st&deFlag != 0)
			m.tags[set] = block
			if st&deSticky != 0 {
				// A block that overrides a sticky resident starts with
				// its hit flag clear.
				m.overrid++
				m.state[set] = fresh &^ deFlag
			} else {
				m.state[set] = fresh
			}
			m.evicts++
		}
	}
	c.lastTag, c.lastValid = lastTag, lastValid
	c.llHits = llHits
	c.accesses += uint64(len(refs))
}

// Outcomes returns cumulative per-member stats and the dynamic-
// exclusion extras — same counters, same order as core.(*Cache).Extras
// — in constructor size order.
func (c *DE) Outcomes() []engine.ColumnOutcome {
	outs := make([]engine.ColumnOutcome, len(c.members))
	for k := range c.members {
		m := &c.members[k]
		hits := c.llHits + m.hits
		fills := c.accesses - hits - m.defends
		outs[c.order[k]] = engine.ColumnOutcome{
			Stats: cache.Stats{
				Accesses:  c.accesses,
				Hits:      hits,
				Misses:    fills + m.defends,
				Fills:     fills,
				Bypasses:  m.defends,
				Evictions: m.evicts,
			},
			Extras: []cache.Counter{
				{Name: "sticky_defenses", Value: m.defends},
				{Name: "hitlast_overrides", Value: m.overrid},
				{Name: "lastline_hits", Value: c.llHits},
			},
		}
	}
	return outs
}
