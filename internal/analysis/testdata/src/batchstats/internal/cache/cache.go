// Package cache mirrors the real simulator base package's Stats shape
// for the batch-stats fixture.
package cache

// Stats mirrors the real event counters.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// Record books one access outcome.
func (s *Stats) Record(hit bool) {
	s.Accesses++
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}
}

// Add merges a delta into s.
func (s *Stats) Add(d Stats) {
	s.Accesses += d.Accesses
	s.Hits += d.Hits
	s.Misses += d.Misses
}

// BatchStats mirrors the per-batch delta wrapper.
type BatchStats struct {
	Stats Stats
}

// Line is a cache whose batch loop lives in this package, next to
// Stats: the rule must see this package's loops too.
type Line struct {
	tags  []uint64
	stats Stats
}

// AccessBlocks books a hit per reference.
func (c *Line) AccessBlocks(blocks []uint64) []uint64 {
	for _, b := range blocks {
		if c.tags[b%8] == b {
			c.stats.Hits++ // finding: write through a Stats field
		}
	}
	return blocks
}
