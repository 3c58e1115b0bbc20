package opt

import (
	"math"

	"repro/internal/cache"
	"repro/internal/trace"
)

// The reference model: the original map-based two-pass simulators, kept
// verbatim (up to names) as the oracle the production kernels must match
// bit for bit. They index with geom.Block and % nsets, key a Go map by
// block, hold int64 positions, and perform the §6 last-line collapse by
// copying the stream — every mechanism the kernels replace.

// refInfinity marks a reference whose block is never used again.
const refInfinity = math.MaxInt64

// refNextUses returns, for every position i, the next position at which
// refs[i]'s block is referenced again (refInfinity if never). Blocks are
// geom-sized.
func refNextUses(refs []trace.Ref, geom cache.Geometry) []int64 {
	next := make([]int64, len(refs))
	last := make(map[uint64]int64, 1024)
	for i := len(refs) - 1; i >= 0; i-- {
		b := geom.Block(refs[i].Addr)
		if j, ok := last[b]; ok {
			next[i] = j
		} else {
			next[i] = refInfinity
		}
		last[b] = int64(i)
	}
	return next
}

// refSimulateDMWindow is the reference optimal direct-mapped cache with
// bypass, counting only refs[warmup:].
func refSimulateDMWindow(refs []trace.Ref, geom cache.Geometry, useLastLine bool, warmup int) cache.Stats {
	geom.Ways = 1
	if err := geom.Validate(); err != nil {
		panic("opt: " + err.Error())
	}
	if warmup < 0 {
		warmup = 0
	}
	var stats cache.Stats
	// count records the outcome of the reference at original stream
	// position pos, discarding warmup-window events.
	count := func(pos int, r cache.Result, evicted bool) {
		if pos >= warmup {
			stats.Record(r, evicted)
		}
	}

	work := refs
	var orig []int // work index -> original refs index (nil = identity)
	if useLastLine {
		// Collapse runs of same-line references: the in-run references
		// are unconditional buffer hits; only run heads reach the cache.
		work = make([]trace.Ref, 0, len(refs))
		orig = make([]int, 0, len(refs))
		haveLast := false
		var last uint64
		for i, r := range refs {
			b := geom.Block(r.Addr)
			if haveLast && b == last {
				count(i, cache.Hit, false)
				continue
			}
			haveLast = true
			last = b
			work = append(work, r)
			orig = append(orig, i)
		}
	}

	next := refNextUses(work, geom)
	nsets := geom.Sets()
	resBlock := make([]uint64, nsets)
	resNext := make([]int64, nsets)
	valid := make([]bool, nsets)

	for i, r := range work {
		pos := i
		if orig != nil {
			pos = orig[i]
		}
		b := geom.Block(r.Addr)
		set := b % nsets
		if valid[set] && resBlock[set] == b {
			resNext[set] = next[i]
			count(pos, cache.Hit, false)
			continue
		}
		switch {
		case !valid[set]:
			valid[set] = true
			resBlock[set] = b
			resNext[set] = next[i]
			count(pos, cache.MissFill, false)
		case next[i] < resNext[set]:
			// The newcomer is needed sooner: replace.
			resBlock[set] = b
			resNext[set] = next[i]
			count(pos, cache.MissFill, true)
		default:
			// The resident is needed sooner (or equally late): bypass.
			count(pos, cache.MissBypass, false)
		}
	}
	return stats
}

// refSimulateSetAssoc is the reference Belady-optimal set-associative
// cache with bypass (Ways = 0 means fully associative).
func refSimulateSetAssoc(refs []trace.Ref, geom cache.Geometry) cache.Stats {
	if err := geom.Validate(); err != nil {
		panic("opt: " + err.Error())
	}
	next := refNextUses(refs, geom)
	nsets := geom.Sets()
	ways := geom.WaysPerSet()
	type slot struct {
		block uint64
		next  int64
		valid bool
	}
	sets := make([][]slot, nsets)
	backing := make([]slot, int(nsets)*ways)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}

	var stats cache.Stats
	for i, r := range refs {
		b := geom.Block(r.Addr)
		set := sets[b%nsets]
		hitIdx := -1
		for w := range set {
			if set[w].valid && set[w].block == b {
				hitIdx = w
				break
			}
		}
		if hitIdx >= 0 {
			set[hitIdx].next = next[i]
			stats.Record(cache.Hit, false)
			continue
		}
		empty, worst := -1, -1
		for w := range set {
			if !set[w].valid {
				empty = w
				break
			}
			if worst < 0 || set[w].next > set[worst].next {
				worst = w
			}
		}
		switch {
		case empty >= 0:
			set[empty] = slot{block: b, next: next[i], valid: true}
			stats.Record(cache.MissFill, false)
		case next[i] < set[worst].next:
			// The newcomer is needed before the farthest-future resident.
			set[worst] = slot{block: b, next: next[i], valid: true}
			stats.Record(cache.MissFill, true)
		default:
			stats.Record(cache.MissBypass, false)
		}
	}
	return stats
}
