// Package multisim implements single-pass multi-geometry column
// kernels: one traversal of a reference stream simulates an entire
// power-of-two size column of a sweep grid — every cache size sharing
// one (line size, policy) pair — producing per-size cache.Stats and
// policy Extras identical to simulating each cell on its own.
//
// The trick is DEW-style shared decoding (arXiv:1506.03181): all member
// sizes share one block number per reference (addr >> log2(line)), and
// each size's set index is just that block masked by its own set count,
// so the per-reference cost of adding another size to the column is one
// mask and one table probe instead of a full simulation pass over the
// stream. Three kernels go further than sharing the decode:
//
//   - DM exploits the stack property of direct-mapped bit selection
//     (1-way LRU): a block resident at size S is resident at every
//     larger power-of-two size, so a probe walks sizes ascending and
//     stops at the first hit. Direct-mapped hits mutate nothing, so the
//     early-out skips all work above that member: the reference is
//     counted once, by its first hitting member, and Outcomes recovers
//     every member's hits by prefix sum.
//   - FIFO has no inclusion property (insertion-order victims break
//     it: a non-MRA hit at S can miss at 2S), but MRA residency nests,
//     as DEW observes: a set's most recently accessed (MRA) block is
//     always resident, and with nested set counts a block that is MRA
//     at S is MRA at every larger size. The walk stops at the first
//     member whose MRA is the block and counts the reference there, as
//     in DM; only the members below it look up their ways.
//   - LRU takes FIFO's MRA walk: a set's MRA block is its most recently
//     used way, and an LRU hit on it changes no state. Each member
//     keeps its sets' valid ways in recency order, so the members below
//     the walk's stop rotate a hit to the front or insert a miss there,
//     dropping the last way of a full set.
//
// DE has no inclusion property (a sticky bypass keeps a block out of a
// small cache while a larger one admits it) and no MRA shortcut (a
// bypassed miss leaves its set's most recently accessed block out of
// the cache), so it is the only lockstep column: full per-member state,
// one shared decode.
//
// Kernels implement engine.Column. Batch methods are annotated
// //dynexcheck:hot — all state is preallocated at construction, and the
// hotpath-alloc analyzer (DESIGN.md §14) pins them allocation-free.
// Correctness against the per-cell path is pinned twice: the
// conformance column battery (internal/conformance), and the sweep
// tests comparing a full-registry sweep's CSV and journal against a
// per-cell run of the same plan (cmd/dynex-sweep). The premise of the
// LRU and FIFO early-outs, MRA residency, is checked on its own against
// plain per-cell simulators of both families
// (conformance.CheckMRAProperty).
package multisim

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/engine"
)

// Validate reports whether a (line, sizes, ways) column is simulable by
// the kernels here: the column needs at least one member, and every
// member geometry must validate on its own with a power-of-two set
// count (the kernels index with masks). Callers (policy.Spec.Column)
// use it to decide column eligibility before constructing anything;
// an ineligible column falls back to cell-by-cell simulation, where
// the per-cell constructor reports the real error.
func Validate(line uint64, sizes []uint64, ways int) error {
	if len(sizes) == 0 {
		return fmt.Errorf("multisim: column has no sizes")
	}
	// Geometry.Ways == 0 means fully associative; the column kernels'
	// set decomposition needs a real set count per member, so columns
	// require explicit associativity.
	if ways < 1 {
		return fmt.Errorf("multisim: column needs ways >= 1, got %d", ways)
	}
	for _, size := range sizes {
		g := cache.Geometry{Size: size, LineSize: line, Ways: ways}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("multisim: %w", err)
		}
		if nsets := g.Sets(); nsets&(nsets-1) != 0 {
			return fmt.Errorf("multisim: geometry %d/%d/%d has %d sets, want a power of two", size, line, ways, nsets)
		}
	}
	return nil
}

// ascendingSizes returns positions into sizes ordered by ascending size
// (stable, so duplicate sizes keep their relative order). Kernels
// process members ascending — first-hit counting in DM, LRU and FIFO
// needs it — while Outcomes must come back in the caller's order, so each
// kernel keeps this permutation: member k reports at order[k].
func ascendingSizes(sizes []uint64) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })
	return order
}

// firstHitOutcomes returns cumulative per-member stats in constructor
// size order for a column that counts each reference once, at its first
// hitting member: hitFrom[k] counts the references first hit at member
// k (ascending), so member k's hits are the prefix sum through k plus
// the hits it found on its own, below the walk's stop. own reports
// member k's own hits and evictions. Direct-mapped and set-associative
// caches never bypass: misses equal fills.
func firstHitOutcomes(accesses uint64, hitFrom []uint64, order []int, own func(k int) (hits, evicts uint64)) []engine.ColumnOutcome {
	outs := make([]engine.ColumnOutcome, len(order))
	prefix := uint64(0)
	for k, oi := range order {
		prefix += hitFrom[k]
		ownHits, evicts := own(k)
		hits := prefix + ownHits
		outs[oi] = engine.ColumnOutcome{Stats: cache.Stats{
			Accesses:  accesses,
			Hits:      hits,
			Misses:    accesses - hits,
			Fills:     accesses - hits,
			Evictions: evicts,
		}}
	}
	return outs
}
