// Package stream implements Jouppi's stream buffer [Jou90]: a small FIFO
// of sequentially prefetched lines started on each cache miss. The paper
// notes stream buffers reduce the effective miss *penalty* but do not
// change the number of conflict misses, so they are complementary to
// dynamic exclusion — and §6 lists "leave excluded instructions in the
// stream buffer" as one way to keep spatial locality with long lines.
package stream

import (
	"fmt"

	"repro/internal/cache"
)

// Buffer is a single stream buffer of sequential line addresses. As in
// Jouppi's design, only the head entry is matched; a head hit advances the
// FIFO and prefetches the next sequential line.
type Buffer struct {
	depth int
	head  uint64 // block number at the head
	left  int    // valid entries remaining
}

// NewBuffer returns a stream buffer holding depth lines.
func NewBuffer(depth int) (*Buffer, error) {
	if depth < 1 {
		return nil, fmt.Errorf("stream: depth must be positive, got %d", depth)
	}
	return &Buffer{depth: depth}, nil
}

// HeadHit reports whether block is at the head of the buffer; if so the
// buffer advances (consuming the entry and prefetching one more).
func (b *Buffer) HeadHit(block uint64) bool {
	if b.left > 0 && b.head == block {
		b.head++
		// The consumed slot is refilled by the prefetcher, so the count
		// stays at depth once the stream is established.
		if b.left < b.depth {
			b.left++
		}
		return true
	}
	return false
}

// Restart points the buffer at the line after block (the miss that
// triggered the prefetch) and fills it.
func (b *Buffer) Restart(block uint64) {
	b.head = block + 1
	b.left = b.depth
}

// Cache couples a direct-mapped cache with a stream buffer: misses that
// hit the buffer head are counted as hits (the line was already on its way
// from the next level) and are filled into the cache.
type Cache struct {
	geom      cache.Geometry
	lineShift uint
	setMask   uint64
	tags      []uint64
	valid     []bool
	buf       *Buffer
	stats     cache.Stats

	streamHits uint64 // references served by the buffer head
}

// New returns a direct-mapped cache with a stream buffer of depth lines.
func New(geom cache.Geometry, depth int) (*Cache, error) {
	geom.Ways = 1
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	buf, err := NewBuffer(depth)
	if err != nil {
		return nil, err
	}
	lineShift, setMask := cache.IndexShifts(geom)
	n := geom.Sets()
	return &Cache{
		geom:      geom,
		lineShift: lineShift,
		setMask:   setMask,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		buf:       buf,
	}, nil
}

// Must is New but panics on error.
func Must(geom cache.Geometry, depth int) *Cache {
	c, err := New(geom, depth)
	if err != nil {
		panic(err)
	}
	return c
}

// Access references addr.
//
//dynexcheck:hot
func (c *Cache) Access(addr uint64) cache.Result {
	block := addr >> c.lineShift
	set := block & c.setMask
	if c.valid[set] && c.tags[set] == block {
		c.stats.Record(cache.Hit, false)
		return cache.Hit
	}
	if c.buf.HeadHit(block) {
		// Prefetched: move into the cache without a next-level miss.
		c.tags[set] = block
		c.valid[set] = true
		c.streamHits++
		c.stats.Record(cache.Hit, false)
		return cache.Hit
	}
	evicted := c.valid[set]
	c.tags[set] = block
	c.valid[set] = true
	c.buf.Restart(block)
	c.stats.Record(cache.MissFill, evicted)
	return cache.MissFill
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() cache.Stats { return c.stats }

// Extras returns the stream-buffer counter in the uniform cache.Counter
// shape.
func (c *Cache) Extras() []cache.Counter {
	return []cache.Counter{{Name: "stream_hits", Value: c.streamHits}}
}

// Geometry returns the cache's shape.
func (c *Cache) Geometry() cache.Geometry { return c.geom }
