package grid

import (
	"repro/internal/engine"
	"repro/internal/policy"
)

// Partition decomposes a set of pending plan cells into maximal
// multisim column units plus a cell-by-cell remainder (DESIGN.md §15).
// A column is every pending cell sharing one (source, line, policy)
// triple across the plan's size axis; columns with fewer than two
// members stay cell-by-cell, because a one-cell column has nothing to
// share and measures slower than the cell's own batch kernel — per
// reference at 32 KiB over the ten suite mixed streams, 1.4–1.6× for
// dm, 1.1–1.3× for de and 1.7–1.8× for lru2, with fifo2 level (go test
// -bench 'CellKernel|Column' ./internal/policy). Cells of
// column-ineligible policies (policy.Spec.Column decides) and cells
// the caller's skip function excludes stay cell-by-cell too (nil skips
// nothing — sweep and serve use it to keep fault-injected cells on the
// per-cell path, where the injection wrapper actually runs).
//
// pending holds plan indices (positions into p.Cells), in the order the
// caller will hand the corresponding cells to engine.RunGrouped; the
// returned group Indices are positions into pending, NOT plan indices,
// so the groups can be passed straight alongside the caller's pending
// cell slice. Out-of-range pending entries are left ungrouped rather
// than rejected. Partitioning changes scheduling only: fingerprints,
// CSV row order, and per-cell results are those of a per-cell run,
// which cmd/dynex-sweep's byte-identity tests pin.
func (p Plan) Partition(pending []int, skip func(planIdx int) bool) []engine.Group {
	nS, nL, nP := len(p.Spec.Sizes), len(p.Spec.Lines), len(p.Spec.Policies)
	if nS < 2 || nL == 0 || nP == 0 {
		return nil
	}
	specs := make([]policy.Spec, nP)
	parsed := make([]bool, nP)
	for i, pol := range p.Spec.Policies {
		sp, err := policy.Parse(pol)
		if err != nil {
			continue // Build already rejected this; be safe, not sorry
		}
		specs[i], parsed[i] = sp, true
	}
	type colKey struct{ src, line, pol int }
	type column struct {
		members []int // positions into pending
		sizes   []uint64
	}
	var keys []colKey
	cols := make(map[colKey]*column)
	for pos, pi := range pending {
		if pi < 0 || pi >= len(p.Cells) {
			continue
		}
		if skip != nil && skip(pi) {
			continue
		}
		polI := pi % nP
		rest := pi / nP
		lineI := rest % nL
		rest /= nL
		sizeI := rest % nS
		srcI := rest / nS
		if !parsed[polI] {
			continue
		}
		k := colKey{srcI, lineI, polI}
		c, ok := cols[k]
		if !ok {
			c = &column{}
			cols[k] = c
			keys = append(keys, k)
		}
		c.members = append(c.members, pos)
		c.sizes = append(c.sizes, p.Spec.Sizes[sizeI])
	}
	var groups []engine.Group
	for _, k := range keys {
		c := cols[k]
		if len(c.members) < 2 {
			continue
		}
		newCol, ok := specs[k.pol].Column(p.Spec.Lines[k.line], c.sizes)
		if !ok {
			continue
		}
		groups = append(groups, engine.Group{Indices: c.members, NewColumn: newCol})
	}
	return groups
}
