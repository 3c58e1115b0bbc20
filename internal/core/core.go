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

	tags   []uint64
	valid  []bool
	sticky []uint8
	flag   []bool // per-residency hit flag (the L1 hit-last copy)

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
	// OnExclude, if non-nil, receives every excluded (bypassed) block.
	// Hierarchies use it to place bypassed lines in L2.
	OnExclude func(block uint64)
}

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
		valid:     make([]bool, n),
		sticky:    make([]uint8, n),
		flag:      make([]bool, n),
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
	if c.valid[set] && c.tags[set] == block {
		c.sticky[set] = c.stickyMax
		c.flag[set] = true
		c.stats.Record(cache.Hit, false)
		return cache.Hit
	}

	if !c.valid[set] {
		c.fill(set, block, true)
		c.stats.Record(cache.MissFill, false)
		return cache.MissFill
	}

	cost := uint8(1)
	hitLast := c.store.Lookup(block)
	if hitLast {
		cost = 2
	}
	if c.sticky[set] >= cost {
		// The resident defends itself; y is excluded.
		c.sticky[set] -= cost
		c.stickyDefenses++
		if c.OnExclude != nil {
			c.OnExclude(block)
		}
		c.stats.Record(cache.MissBypass, false)
		return cache.MissBypass
	}

	// Replace. A challenger that entered through a fully non-sticky line
	// starts its residency with the hit flag set (the paper's A,!s → B,s
	// transition, which "sets the h[z] bit even when instruction z does
	// not hit"); one that overrode a still-sticky resident via hit-last
	// starts with the flag clear and must prove itself by hitting.
	wasSticky := c.sticky[set] > 0
	if wasSticky {
		c.hitLastOverrides++
	}
	c.evict(set)
	c.fill(set, block, !wasSticky)
	c.stats.Record(cache.MissFill, true)
	return cache.MissFill
}

// fill installs block in set with the given initial hit flag.
func (c *Cache) fill(set, block uint64, flag bool) {
	c.tags[set] = block
	c.valid[set] = true
	c.sticky[set] = c.stickyMax
	c.flag[set] = flag
}

// evict writes back the resident's hit-last state and notifies OnEvict.
func (c *Cache) evict(set uint64) {
	c.store.Writeback(c.tags[set], c.flag[set])
	if c.OnEvict != nil {
		c.OnEvict(c.tags[set], c.flag[set])
	}
}

// Contains reports whether addr's block is resident in the cache proper
// (not the last-line buffer), without side effects.
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.lineShift
	set := block & c.setMask
	return c.valid[set] && c.tags[set] == block
}

// Sticky returns the sticky level of addr's line (0 if not resident).
func (c *Cache) Sticky(addr uint64) int {
	block := addr >> c.lineShift
	set := block & c.setMask
	if !c.valid[set] || c.tags[set] != block {
		return 0
	}
	return int(c.sticky[set])
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
	for i := range c.valid {
		c.valid[i] = false
		c.sticky[i] = 0
		c.flag[i] = false
	}
	c.lastValid = false
	c.stats = cache.Stats{}
	c.lastLineHits, c.stickyDefenses, c.hitLastOverrides = 0, 0, 0
}
