package cache

import (
	"fmt"

	"repro/internal/trace"
)

// DirectMapped is a conventional direct-mapped cache: every block has
// exactly one line it can live in, and the most recent reference always
// replaces the previous occupant. This is the paper's baseline.
type DirectMapped struct {
	geom      Geometry
	lineShift uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	stats     Stats

	// OnEvict, if non-nil, is called with the block number of each valid
	// block displaced by a fill. The write-policy wrapper uses it to
	// write dirty lines back.
	OnEvict func(block uint64)
}

// NewDirectMapped returns a direct-mapped cache with the given geometry
// (Ways is forced to 1).
func NewDirectMapped(geom Geometry) (*DirectMapped, error) {
	geom.Ways = 1
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	lineShift, setMask := IndexShifts(geom)
	n := geom.Sets()
	return &DirectMapped{
		geom:      geom,
		lineShift: lineShift,
		setMask:   setMask,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
	}, nil
}

// MustDirectMapped is NewDirectMapped but panics on error; for tables of
// experiment configurations.
func MustDirectMapped(geom Geometry) *DirectMapped {
	c, err := NewDirectMapped(geom)
	if err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	return c
}

// Access references addr, filling on a miss.
//
//dynexcheck:hot
func (c *DirectMapped) Access(addr uint64) Result {
	tag := addr >> c.lineShift
	set := tag & c.setMask
	if c.valid[set] && c.tags[set] == tag {
		c.stats.Record(Hit, false)
		return Hit
	}
	evicted := c.valid[set]
	if evicted && c.OnEvict != nil {
		c.OnEvict(c.tags[set])
	}
	c.tags[set] = tag
	c.valid[set] = true
	c.stats.Record(MissFill, evicted)
	return MissFill
}

// Decode writes the block numbers of refs to dst, which must be at
// least as long, and returns them: the input AccessBlocks takes.
func (c *DirectMapped) Decode(dst []uint64, refs []trace.Ref) []uint64 {
	return DecodeBlocks(dst, refs, c.lineShift)
}

// AccessBlocks is the direct-mapped batch loop. It runs decoded block
// numbers through the cache in order, as Access runs addresses, and
// records them in Stats once per call. It returns the misses,
// compacted to the front of blocks. By inclusion a hit is a hit, with
// no state change, in a direct-mapped cache of any larger power-of-two
// size and the same line size, so a size column hands only the misses
// on to its next member. OnEvict is not called: BatchAccess sends a
// hooked cache through Access.
//
//dynexcheck:hot
func (c *DirectMapped) AccessBlocks(blocks []uint64) []uint64 {
	setMask := c.setMask
	// Equal lengths let one bounds check per block cover both state
	// arrays.
	nsets := setMask + 1
	tags, valid := c.tags[:nsets:nsets], c.valid[:nsets:nsets]
	var evictions uint64
	n := 0
	for _, block := range blocks {
		set := block & setMask
		if valid[set] && tags[set] == block {
			continue
		}
		if valid[set] {
			evictions++
		} else {
			valid[set] = true
		}
		tags[set] = block
		blocks[n] = block
		n++
	}
	misses := uint64(n)
	c.stats.Add(Stats{
		Accesses:  uint64(len(blocks)),
		Hits:      uint64(len(blocks)) - misses,
		Misses:    misses,
		Fills:     misses,
		Evictions: evictions,
	})
	return blocks[:n]
}

// Contains reports whether addr's block is resident (no stats side
// effects).
func (c *DirectMapped) Contains(addr uint64) bool {
	tag := addr >> c.lineShift
	set := tag & c.setMask
	return c.valid[set] && c.tags[set] == tag
}

// Stats returns the accumulated counters.
func (c *DirectMapped) Stats() Stats { return c.stats }

// Geometry returns the cache's shape.
func (c *DirectMapped) Geometry() Geometry { return c.geom }

// Reset clears contents and counters.
func (c *DirectMapped) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.stats = Stats{}
}
