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
// stream. Two kernels go further than sharing the decode:
//
//   - DM exploits the stack property of direct-mapped bit selection
//     (1-way LRU): a block resident at size S is resident at every
//     larger power-of-two size, so a probe walks sizes ascending and
//     stops at the first hit — and direct-mapped hits mutate nothing,
//     so the early-out skips real work, not just bookkeeping.
//   - LRU runs Mattson-style stack-distance processing (Hill & Smith's
//     forest simulation collapsed onto move-to-front stacks): one
//     recency stack per smallest-member set yields the stack distance
//     at EVERY member set count from a single walk, because a finer
//     set mask only filters which stack entries count toward the
//     distance.
//
// DE and FIFO have no inclusion property (DE's bypasses and FIFO's
// insertion-order victims break it), so their kernels are plain
// lockstep columns: full per-member state, one shared decode.
//
// Kernels implement engine.Column. Batch methods are annotated
// //dynexcheck:hot — all state is preallocated at construction, and the
// hotpath-alloc analyzer (DESIGN.md §14) pins them allocation-free.
// Correctness against the per-cell path is pinned twice: the
// conformance column battery (internal/conformance), and the sweep
// tests comparing a full-registry sweep's CSV and journal against a
// per-cell run of the same plan (cmd/dynex-sweep).
package multisim

import (
	"fmt"
	"sort"

	"repro/internal/cache"
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
// process members ascending — the DM early-out and the LRU suffix-sum
// need it — while Outcomes must come back in the caller's order, so
// each kernel keeps this permutation: member k reports at order[k].
func ascendingSizes(sizes []uint64) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })
	return order
}
