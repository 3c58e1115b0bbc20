// Package core is the batch-stats fixture: batch loops with
// per-reference Stats writes (findings) and the sanctioned
// accumulate-then-flush shape (clean).
package core

import "fix/internal/cache"

// Sim is a simulator with a batch kernel.
type Sim struct {
	tags  []uint64
	stats cache.Stats
}

// BatchAccess is the offending kernel: it books stats once per
// reference, through method calls and through direct field writes.
func (c *Sim) BatchAccess(refs []uint64) cache.BatchStats {
	var d cache.Stats
	for _, addr := range refs {
		hit := c.tags[addr%8] == addr
		c.stats.Record(hit) // finding: Stats method call in the loop
		c.stats.Hits++      // finding: write through a Stats field
		c.stats = d         // finding: whole-Stats assignment
		d.Record(hit)       // finding: even a local Stats delta counts per-ref
	}
	c.stats.Add(d) // clean: one flush after the loop
	return cache.BatchStats{Stats: d}
}

// Fast is the sanctioned kernel shape; the same writes are legal outside
// a batch function.
type Fast struct {
	tags  []uint64
	stats cache.Stats
}

// BatchAccess accumulates in plain locals and flushes once.
func (c *Fast) BatchAccess(refs []uint64) cache.BatchStats {
	var hits, misses uint64
	for _, addr := range refs {
		if c.tags[addr%8] == addr {
			hits++ // clean: plain local accumulation
		} else {
			misses++
			c.tags[addr%8] = addr // clean: policy-state writes stay legal
		}
	}
	d := cache.Stats{Accesses: uint64(len(refs)), Hits: hits, Misses: misses}
	c.stats.Add(d)
	return cache.BatchStats{Stats: d}
}

// Access is scalar code: per-reference Stats writes are its job.
func (c *Fast) Access(addr uint64) {
	for i := 0; i < 1; i++ {
		c.stats.Record(c.tags[addr%8] == addr) // clean: not a batch function
	}
}

// Set is a simulator whose batch path is a decode pass feeding a
// family loop, as the real dm, lru, fifo and de caches have it.
type Set struct {
	tags  []uint64
	stats cache.Stats
}

// Decode counts the references it filters out once, after its loop.
func (c *Set) Decode(dst, refs []uint64) []uint64 {
	n := 0
	for _, addr := range refs {
		if addr != 0 {
			dst[n] = addr
			n++
		}
	}
	c.stats.Add(cache.Stats{Accesses: uint64(len(refs) - n)}) // clean: once per call
	return dst[:n]
}

// AccessBlocks is the offending family loop: a batch loop need not be
// called BatchAccess to be one.
func (c *Set) AccessBlocks(blocks []uint64) []uint64 {
	for _, b := range blocks {
		c.stats.Record(c.tags[b%8] == b) // finding: Stats method call in the loop
	}
	return c.lruBlocks(blocks)
}

// lruBlocks is a per-policy loop AccessBlocks dispatches to.
func (c *Set) lruBlocks(blocks []uint64) []uint64 {
	var hits uint64
	for _, b := range blocks {
		if c.tags[b%8] == b {
			hits++ // clean: plain local accumulation
			continue
		}
		c.stats.Misses++ // finding: write through a Stats field
		c.tags[b%8] = b
	}
	c.stats.Add(cache.Stats{Hits: hits}) // clean: once per call
	return blocks
}
