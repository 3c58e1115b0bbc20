// Package core implements the paper's contribution: the dynamic exclusion
// replacement policy for direct-mapped caches.
//
// A conventional direct-mapped cache always stores the most recent
// reference. Dynamic exclusion instead runs a small finite state machine
// per cache line that recognizes the common loop-induced conflict patterns
// (paper §3) and *excludes* — passes to the CPU without storing —
// references that would only displace something more useful. Two state
// bits drive the FSM:
//
//   - sticky (one bit per cache line): inertia. A resident line survives
//     the first conflicting reference (which clears sticky) and is replaced
//     by the second, unless the resident is re-referenced first (which sets
//     sticky again).
//
//   - hit-last (logically one bit per memory block): whether the block hit
//     the last time it was resident. A conflicting reference whose
//     hit-last bit is set displaces even a sticky resident.
//
// The FSM, written out per access to block y when the mapped line holds
// block x with sticky bit s and per-residency hit flag f (f is the L1 copy
// of hit-last, written back to the HitLastStore when x is evicted):
//
//	y == x (hit)              : s := 1; f := 1
//	miss, line invalid        : fill y; s := 1; f := 1
//	miss, s == 0              : h[x] := f; fill y; s := 1; f := 1
//	miss, s == 1 && h[y] == 1 : h[x] := f; fill y; s := 1; f := 0
//	miss, s == 1 && h[y] == 0 : EXCLUDE y (do not store); s := 0
//
// The f := 1 on the s == 0 fill is the paper's deliberate transition that
// "sets the h[z] bit even when instruction z does not hit" (A,!s → B,s),
// letting random references enter the cache sooner.
//
// Where the hit-last bits live is a design axis (paper §5): an unbounded
// table (TableStore, the idealized policy), a fixed hashed bit array held
// in the L1 cache (HashedStore, the paper's "hashed" strategy), or the
// next cache level (implemented by internal/hierarchy). The package also
// implements the §6 last-line buffer that preserves spatial locality when
// cache lines hold several instructions, and the multi-level sticky
// counter extension of [McF91a].
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// HitLastStore remembers hit-last bits for blocks that are not resident in
// the cache. Implementations decide capacity and the value reported for
// blocks they have never seen (the paper's assume-hit / assume-miss
// choice).
type HitLastStore interface {
	// Lookup returns the hit-last bit for block.
	Lookup(block uint64) bool
	// Writeback records the hit-last bit for an evicted block.
	Writeback(block uint64, hitLast bool)
}

// Config describes a dynamic exclusion cache.
type Config struct {
	// Geometry is the cache shape; Ways is forced to 1 (the policy is
	// specifically a direct-mapped replacement policy).
	Geometry cache.Geometry
	// Store supplies hit-last bits for non-resident blocks. Required.
	Store HitLastStore
	// UseLastLine enables the §6 one-line buffer: the line of the most
	// recent reference is held in a register with its own tag, so
	// sequential references within it hit without touching the FSM, and
	// excluded lines still serve their spatial locality. Enable it
	// whenever LineSize exceeds one instruction.
	//
	// Of the three §6 implementations this is option 1, the instruction
	// register: the buffer tracks the current line on every access, so
	// its behavior is independent of the replacement policy. (Option 2's
	// buffer retains the most recently *missed* line across intervening
	// hits — marginally stronger, but then the cache-plus-buffer system
	// can beat the "optimal" direct-mapped bound, which is computed on
	// the policy-independent collapsed stream. Choosing option 1 keeps
	// DM ≥ DE ≥ OPT exact.)
	UseLastLine bool
	// StickyMax is the number of sticky levels. 1 (the default if zero)
	// is the paper's single sticky bit. Higher values implement the
	// multi-sticky extension discussed in §4 and [McF91a]: a hit raises
	// the resident's level to StickyMax; a conflicting reference with
	// hit-last set costs the resident two levels, without hit-last one
	// level; the resident is replaced only when the cost exceeds its
	// remaining level. StickyMax = 1 reduces exactly to the paper's FSM.
	StickyMax int
}

// Cache is a direct-mapped cache with the dynamic exclusion replacement
// policy.
type Cache struct {
	geom      cache.Geometry
	lineShift uint
	setMask   uint64
	store     HitLastStore
	stickyMax uint8
	lastLine  bool

	// A set's FSM state is its tag and one word: the sticky level in
	// the low byte (stickyBits), then the per-residency hit flag (the L1
	// hit-last copy) and the valid bit.
	tags  []uint64
	state []uint16

	lastTag   uint64
	lastValid bool

	stats cache.Stats

	// Policy-specific event counters, exposed uniformly via Extras.
	lastLineHits     uint64
	stickyDefenses   uint64
	hitLastOverrides uint64

	// OnEvict, if non-nil, receives every evicted block with its written-
	// back hit-last bit. Hierarchies use it to spill L1 victims (and
	// their state) into L2.
	OnEvict func(block uint64, hitLast bool)
}

const (
	stickyBits = 0xff
	flagBit    = 1 << 8
	validBit   = 1 << 9

	// The six bits above validBit hold a set's run, which only
	// ColumnBlocks keeps: how many of the latest references it ran in
	// the set were, in a row, to the resident block. The set is quiet
	// once the run reaches StickyMax+1, so the run can mark quiet sets
	// only up to StickyMax = maxQuietSticky.
	runShift       = 10
	runUnit        = 1 << runShift
	runBits        = 0xffff &^ (runUnit - 1)
	maxQuietSticky = runBits>>runShift - 1
)

// New returns a dynamic exclusion cache.
func New(cfg Config) (*Cache, error) {
	cfg.Geometry.Ways = 1
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: Config.Store is required")
	}
	if cfg.StickyMax == 0 {
		cfg.StickyMax = 1
	}
	if cfg.StickyMax < 1 || cfg.StickyMax > 255 {
		return nil, fmt.Errorf("core: StickyMax %d out of [1,255]", cfg.StickyMax)
	}
	lineShift, setMask := cache.IndexShifts(cfg.Geometry)
	n := cfg.Geometry.Sets()
	return &Cache{
		geom:      cfg.Geometry,
		lineShift: lineShift,
		setMask:   setMask,
		store:     cfg.Store,
		stickyMax: uint8(cfg.StickyMax),
		lastLine:  cfg.UseLastLine,
		tags:      make([]uint64, n),
		state:     make([]uint16, n),
	}, nil
}

// Must is New but panics on error; for tables of experiment configurations.
func Must(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Access runs one reference through the policy.
//
//dynexcheck:hot
func (c *Cache) Access(addr uint64) cache.Result {
	block := addr >> c.lineShift

	// §6: sequential references within the current line are served by the
	// last-line register and do not touch the FSM. The register tracks
	// every access (instruction-register semantics), so the FSM sees each
	// run of same-line references as one reference.
	if c.lastLine {
		if c.lastValid && c.lastTag == block {
			c.stats.Record(cache.Hit, false)
			c.lastLineHits++
			return cache.Hit
		}
		c.lastTag = block
		c.lastValid = true
	}

	set := block & c.setMask
	st := c.state[set]
	if st&validBit != 0 && c.tags[set] == block {
		c.state[set] = c.fresh()
		c.stats.Record(cache.Hit, false)
		return cache.Hit
	}

	if st&validBit == 0 {
		c.tags[set] = block
		c.state[set] = c.fresh()
		c.stats.Record(cache.MissFill, false)
		return cache.MissFill
	}

	cost := uint16(1)
	hitLast := c.store.Lookup(block)
	if hitLast {
		cost = 2
	}
	if st&stickyBits >= cost {
		// The resident defends itself; y is excluded.
		c.state[set] = st - cost
		c.stickyDefenses++
		c.stats.Record(cache.MissBypass, false)
		return cache.MissBypass
	}

	// Replace. A challenger that entered through a fully non-sticky line
	// starts its residency with the hit flag set (the paper's A,!s → B,s
	// transition, which "sets the h[z] bit even when instruction z does
	// not hit"); one that overrode a still-sticky resident via hit-last
	// starts with the flag clear and must prove itself by hitting.
	c.store.Writeback(c.tags[set], st&flagBit != 0)
	if c.OnEvict != nil {
		c.OnEvict(c.tags[set], st&flagBit != 0)
	}
	c.tags[set] = block
	c.state[set] = c.fresh()
	if st&stickyBits != 0 {
		c.hitLastOverrides++
		c.state[set] &^= flagBit
	}
	c.stats.Record(cache.MissFill, true)
	return cache.MissFill
}

// fresh is the state word of a block just filled or hit: valid, at
// full sticky level, with its hit flag set.
func (c *Cache) fresh() uint16 { return validBit | flagBit | uint16(c.stickyMax) }

// BatchAccess decodes refs a cache.BlockChunk at a time through the §6
// register and runs each chunk through AccessBlocks, the
// dynamic-exclusion batch loop. A cache with an OnEvict hook takes
// Access once per reference instead, so hook calls come in exactly the
// order scalar Access makes them.
//
//dynexcheck:hot
func (c *Cache) BatchAccess(refs []trace.Ref) cache.BatchStats {
	before := c.stats
	if c.OnEvict != nil {
		for i := range refs {
			c.Access(refs[i].Addr)
		}
		return cache.BatchStats{Stats: c.stats.Sub(before)}
	}
	var buf [cache.BlockChunk]uint64
	for len(refs) > 0 {
		n := min(len(refs), cache.BlockChunk)
		c.AccessBlocks(c.Decode(buf[:], refs[:n]))
		refs = refs[n:]
	}
	return cache.BatchStats{Stats: c.stats.Sub(before)}
}

// Decode writes the block numbers of refs to dst, which must be at
// least as long, and returns those AccessBlocks is to run. With the §6
// register on, a reference to the register's block hits there and is
// left out; Decode counts those hits itself.
//
//dynexcheck:hot
func (c *Cache) Decode(dst []uint64, refs []trace.Ref) []uint64 {
	if !c.lastLine {
		return cache.DecodeBlocks(dst, refs, c.lineShift)
	}
	dst = dst[:len(refs)]
	lineShift := c.lineShift & 63
	lastTag, lastValid := c.lastTag, c.lastValid
	n := 0
	for i := range refs {
		block := refs[i].Addr >> lineShift
		if lastValid && lastTag == block {
			continue
		}
		lastTag, lastValid = block, true
		dst[n] = block
		n++
	}
	c.lastTag, c.lastValid = lastTag, lastValid
	hits := uint64(len(refs) - n)
	c.lastLineHits += hits
	c.stats.Add(cache.Stats{Accesses: hits, Hits: hits})
	return dst[:n]
}

// AccessBlocks is the dynamic-exclusion batch loop. It runs decoded
// block numbers (past the §6 register) through the FSM in order, as
// Access does, and records them in Stats and the extras once per call.
// It returns blocks whole: a lone cell ignores the return, and in a
// size column it is the loop of the largest member, which has no
// larger member to hand blocks to. The members below the largest run
// ColumnBlocks. The hooks are not called: BatchAccess sends a hooked
// cache through Access.
//
//dynexcheck:hot
func (c *Cache) AccessBlocks(blocks []uint64) []uint64 {
	setMask := c.setMask
	// Equal lengths let one bounds check per block cover both state
	// arrays.
	nsets := setMask + 1
	tags, state := c.tags[:nsets:nsets], c.state[:nsets:nsets]
	store := c.store
	fresh := c.fresh()
	var hits, defenses, evictions, overrides uint64
	for _, block := range blocks {
		set := block & setMask
		st := state[set]
		if st&validBit != 0 && tags[set] == block {
			state[set] = fresh
			hits++
			continue
		}
		if st&validBit == 0 {
			tags[set] = block
			state[set] = fresh
			continue
		}
		cost := uint16(1)
		if store.Lookup(block) {
			cost = 2
		}
		if st&stickyBits >= cost {
			state[set] = st - cost
			defenses++
			continue
		}
		store.Writeback(tags[set], st&flagBit != 0)
		tags[set] = block
		if st&stickyBits != 0 {
			// A block that overrides a sticky resident starts with its
			// hit flag clear.
			overrides++
			state[set] = fresh &^ flagBit
		} else {
			state[set] = fresh
		}
		evictions++
	}
	// Every block hit, was excluded (a defense) or was filled.
	fills := uint64(len(blocks)) - hits - defenses
	c.stats.Add(cache.Stats{
		Accesses:  uint64(len(blocks)),
		Hits:      hits,
		Misses:    fills + defenses,
		Fills:     fills,
		Bypasses:  defenses,
		Evictions: evictions,
	})
	c.stickyDefenses += defenses
	c.hitLastOverrides += overrides
	return blocks
}

// ColumnBlocks is the dynamic-exclusion batch loop of a size column's
// members below the largest. It runs blocks through the FSM as
// AccessBlocks does, and returns, compacted to the front, those a
// larger member still has to see: every block but the ones it settles.
//
// DE has no inclusion (a sticky bypass keeps a block out of a small
// cache that a larger one admits), but a quiet set settles its block:
// a set whose last StickyMax+1 references were all to one block b.
// Each reference to a non-resident b either fills it or costs the
// resident at least one sticky level, so b is resident after at most
// StickyMax+1 of them. If the last of them filled it, the StickyMax
// before it each cost one level from the top, and a fill into a set
// at level 0 sets the hit flag; otherwise a later one hit b. Either
// way the set holds b at full sticky level with its flag set, whatever
// the hit-last store answered, and the next reference to b is a hit
// that changes nothing. A larger member's set for b has seen only
// references to b since the first of those: all StickyMax+1 of them,
// which leaves it in the same state, or all but those a member in
// between settled, which it did from a quiet set, when the larger set
// already held b that way. So from a quiet member up a reference to b
// is such a hit, and the column counts it as one for the members it
// does not reach. StickyMax references are not enough: a resident at
// full level can defend itself against all of them.
//
// The run field of the state word counts the references to the
// resident block since it was filled or last defended itself, which
// undercounts the references to b when it entered after defenses; the
// early-out only fires later. A StickyMax above maxQuietSticky has a
// quiet level the field cannot hold, and every block is handed on.
//
//dynexcheck:hot
func (c *Cache) ColumnBlocks(blocks []uint64) []uint64 {
	setMask := c.setMask
	nsets := setMask + 1
	tags, state := c.tags[:nsets:nsets], c.state[:nsets:nsets]
	store := c.store
	fresh := c.fresh()
	// The run field holds the top bits of the word, so a set is quiet
	// exactly when its word reaches quiet. Past maxQuietSticky, quiet
	// exceeds every word, and a run that wraps is never read.
	quiet := (uint32(c.stickyMax) + 1) << runShift
	var hits, defenses, evictions, overrides uint64
	n := 0
	for _, block := range blocks {
		set := block & setMask
		st := state[set]
		if st&validBit != 0 && tags[set] == block {
			hits++
			if uint32(st) >= quiet {
				continue
			}
			state[set] = fresh | (st&runBits + runUnit)
			blocks[n] = block
			n++
			continue
		}
		blocks[n] = block
		n++
		if st&validBit == 0 {
			tags[set] = block
			state[set] = fresh | runUnit
			continue
		}
		cost := uint16(1)
		if store.Lookup(block) {
			cost = 2
		}
		if st&stickyBits >= cost {
			state[set] = (st - cost) &^ runBits
			defenses++
			continue
		}
		store.Writeback(tags[set], st&flagBit != 0)
		tags[set] = block
		if st&stickyBits != 0 {
			overrides++
			state[set] = (fresh | runUnit) &^ flagBit
		} else {
			state[set] = fresh | runUnit
		}
		evictions++
	}
	fills := uint64(len(blocks)) - hits - defenses
	c.stats.Add(cache.Stats{
		Accesses:  uint64(len(blocks)),
		Hits:      hits,
		Misses:    fills + defenses,
		Fills:     fills,
		Bypasses:  defenses,
		Evictions: evictions,
	})
	c.stickyDefenses += defenses
	c.hitLastOverrides += overrides
	return blocks[:n]
}

// Contains reports whether addr's block is resident in the cache proper
// (not the last-line buffer), without side effects.
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.lineShift
	set := block & c.setMask
	return c.state[set]&validBit != 0 && c.tags[set] == block
}

// Sticky returns the sticky level of addr's line (0 if not resident).
func (c *Cache) Sticky(addr uint64) int {
	block := addr >> c.lineShift
	set := block & c.setMask
	if c.state[set]&validBit == 0 || c.tags[set] != block {
		return 0
	}
	return int(c.state[set] & stickyBits)
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() cache.Stats { return c.stats }

// Extras returns the dynamic-exclusion event counters in the uniform
// cache.Counter shape: sticky defenses (conflicting references excluded
// because the resident was sticky), hit-last overrides (replacements
// forced by the challenger's hit-last bit despite a sticky resident), and
// last-line hits (hits served by the §6 buffer).
func (c *Cache) Extras() []cache.Counter {
	return []cache.Counter{
		{Name: "sticky_defenses", Value: c.stickyDefenses},
		{Name: "hitlast_overrides", Value: c.hitLastOverrides},
		{Name: "lastline_hits", Value: c.lastLineHits},
	}
}

// Geometry returns the cache's shape.
func (c *Cache) Geometry() cache.Geometry { return c.geom }

// Reset clears contents and counters. The hit-last store is NOT cleared
// (it models state that outlives residency); reset it separately if the
// experiment requires a cold store.
func (c *Cache) Reset() {
	clear(c.state)
	c.lastValid = false
	c.stats = cache.Stats{}
	c.lastLineHits, c.stickyDefenses, c.hitLastOverrides = 0, 0, 0
}
