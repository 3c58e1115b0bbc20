// Package writepolicy adds store handling to the content simulators: a
// write-back (write-allocate) or write-through wrapper that tracks dirty
// lines and counts the write traffic sent to the next memory level. The
// paper evaluates data and mixed caches by miss rate only (§7); this
// substrate additionally quantifies a consequence of dynamic exclusion on
// the write path — stores to bypassed lines cannot be absorbed by the
// cache and go straight through, trading write traffic for the conflict
// misses exclusion removes.
package writepolicy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// Policy selects how stores reach the next level.
type Policy uint8

const (
	// WriteBack allocates on store misses, marks lines dirty, and writes
	// a full line to the next level on dirty eviction.
	WriteBack Policy = iota
	// WriteThrough sends every store to the next level immediately;
	// evictions are free.
	WriteThrough
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case WriteBack:
		return "write-back"
	case WriteThrough:
		return "write-through"
	default:
		return "unknown"
	}
}

// WriteStats counts write traffic to the next level.
type WriteStats struct {
	// Stores is the number of store references seen.
	Stores uint64
	// ThroughWrites counts word-sized writes sent directly to the next
	// level (every store under write-through; stores to bypassed lines
	// under write-back).
	ThroughWrites uint64
	// Writebacks counts dirty lines written to the next level on
	// eviction (write-back only).
	Writebacks uint64
}

// TrafficWords returns total words written to the next level, charging a
// full line (lineWords words) per writeback.
func (s WriteStats) TrafficWords(lineWords uint64) uint64 {
	return s.ThroughWrites + s.Writebacks*lineWords
}

// content is the inner cache contract: both cache.DirectMapped and
// core.Cache satisfy it via small adapters below.
type content interface {
	Access(addr uint64) cache.Result
	Stats() cache.Stats
	Geometry() cache.Geometry
}

// Cache wraps a content simulator with a write policy.
type Cache struct {
	inner     content
	policy    Policy
	dirty     map[uint64]bool
	ws        WriteStats
	lineShift uint // cache.IndexShifts of the inner geometry
}

// WrapDM wraps a conventional direct-mapped cache. The cache's OnEvict
// hook is taken over by the wrapper.
func WrapDM(c *cache.DirectMapped, policy Policy) (*Cache, error) {
	w, err := newCache(c, policy)
	if err != nil {
		return nil, err
	}
	c.OnEvict = func(block uint64) { w.evicted(block) }
	return w, nil
}

// WrapDE wraps a dynamic exclusion cache. The cache's OnEvict hook is
// taken over by the wrapper (hierarchies needing it should layer their
// own spill logic above the wrapper).
func WrapDE(c *core.Cache, policy Policy) (*Cache, error) {
	w, err := newCache(c, policy)
	if err != nil {
		return nil, err
	}
	c.OnEvict = func(block uint64, _ bool) { w.evicted(block) }
	return w, nil
}

func newCache(inner content, policy Policy) (*Cache, error) {
	if policy > WriteThrough {
		return nil, fmt.Errorf("writepolicy: unknown policy %d", policy)
	}
	lineShift, _ := cache.IndexShifts(inner.Geometry())
	return &Cache{
		inner:     inner,
		policy:    policy,
		dirty:     map[uint64]bool{},
		lineShift: lineShift,
	}, nil
}

// evicted handles a displaced block: dirty lines cost a writeback.
func (c *Cache) evicted(block uint64) {
	if c.dirty[block] {
		delete(c.dirty, block)
		if c.policy == WriteBack {
			c.ws.Writebacks++
		}
	}
}

// Access runs one reference (loads and instruction fetches behave as
// reads).
func (c *Cache) Access(ref trace.Ref) cache.Result {
	res := c.inner.Access(ref.Addr)
	if ref.Kind != trace.Store {
		return res
	}
	c.ws.Stores++
	block := ref.Addr >> c.lineShift
	switch c.policy {
	case WriteThrough:
		c.ws.ThroughWrites++
	case WriteBack:
		if res == cache.MissBypass {
			// The line is not cached; the store cannot be absorbed.
			c.ws.ThroughWrites++
		} else {
			c.dirty[block] = true
		}
	}
	return res
}

// Stats returns the inner cache's access counters.
func (c *Cache) Stats() cache.Stats { return c.inner.Stats() }

// Writes returns the write-traffic counters.
func (c *Cache) Writes() WriteStats { return c.ws }

// Policy returns the configured write policy.
func (c *Cache) Policy() Policy { return c.policy }

// DirtyLines returns the number of currently dirty lines.
func (c *Cache) DirtyLines() int { return len(c.dirty) }

// RunRefs drives the wrapper over a reference slice (kind-aware, unlike
// cache.RunRefs).
func (c *Cache) RunRefs(refs []trace.Ref) {
	for _, r := range refs {
		c.Access(r)
	}
}
