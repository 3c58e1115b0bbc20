package core

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

// BatchAccess is the dynamic-exclusion flat kernel: one pass over the
// batch with the geometry constants (line shift, set mask), the FSM
// arrays, and the §6 last-line register all hoisted into locals, and
// every counter — Stats and the policy extras — accumulated per batch.
// State transitions, the hit-last store traffic, and the OnEvict /
// OnExclude hook sequence are identical to scalar Access; the
// conformance differential battery pins that.
//
//dynexcheck:hot
func (c *Cache) BatchAccess(refs []trace.Ref) cache.BatchStats {
	lineShift, setMask := c.lineShift&63, c.setMask
	// Equal lengths let one bounds check per reference cover every
	// state array, and the masked shift needs no overflow test.
	nsets := setMask + 1
	tags, valid := c.tags[:nsets:nsets], c.valid[:nsets:nsets]
	sticky, flag := c.sticky[:nsets:nsets], c.flag[:nsets:nsets]
	store := c.store
	stickyMax := c.stickyMax
	useLastLine := c.lastLine
	lastTag, lastValid := c.lastTag, c.lastValid
	var hits, fills, bypasses, evictions uint64
	var lastLineHits, defenses, overrides uint64
	for i := range refs {
		block := refs[i].Addr >> lineShift

		if useLastLine {
			if lastValid && lastTag == block {
				hits++
				lastLineHits++
				continue
			}
			lastTag, lastValid = block, true
		}

		set := block & setMask
		if valid[set] && tags[set] == block {
			sticky[set] = stickyMax
			flag[set] = true
			hits++
			continue
		}

		if !valid[set] {
			tags[set] = block
			valid[set] = true
			sticky[set] = stickyMax
			flag[set] = true
			fills++
			continue
		}

		cost := uint8(1)
		if store.Lookup(block) {
			cost = 2
		}
		if sticky[set] >= cost {
			sticky[set] -= cost
			defenses++
			if c.OnExclude != nil {
				c.OnExclude(block)
			}
			bypasses++
			continue
		}

		wasSticky := sticky[set] > 0
		if wasSticky {
			overrides++
		}
		store.Writeback(tags[set], flag[set])
		if c.OnEvict != nil {
			c.OnEvict(tags[set], flag[set])
		}
		tags[set] = block
		valid[set] = true
		sticky[set] = stickyMax
		flag[set] = !wasSticky
		fills++
		evictions++
	}
	c.lastTag, c.lastValid = lastTag, lastValid
	d := cache.Stats{
		Accesses:  uint64(len(refs)),
		Hits:      hits,
		Misses:    fills + bypasses,
		Fills:     fills,
		Bypasses:  bypasses,
		Evictions: evictions,
	}
	c.stats.Add(d)
	c.lastLineHits += lastLineHits
	c.stickyDefenses += defenses
	c.hitLastOverrides += overrides
	return cache.BatchStats{Stats: d}
}
