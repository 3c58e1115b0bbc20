package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/trace"
)

// Cells returns the engine cell bodies of one size column of the spec —
// one stream, one line size, every size in sizes — with cells[k]'s
// Geometry set to sizes[k] at line; every geometry must validate
// (grid.Spec.Build checks them first). Label and Stream are left for
// the caller; the engine hands each cell's Geometry to its closure.
// Online families get Policy cells that Build a fresh simulator, as a
// lone cell always has. opt, the one whole-stream family, gets Direct
// cells that share one opt.Shared kept in passes: the first to run
// computes the backward next-use pass, which depends only on the
// stream, the line size and the last-line setting, and keeps it if the
// run of passes allows; the rest reuse it, and the last to return drops
// it (DESIGN.md, "The optimal kernel").
func (s Spec) Cells(line uint64, sizes []uint64, passes *opt.Passes) []engine.Cell {
	cells := make([]engine.Cell, len(sizes))
	var shared *opt.Shared
	if s.family == "opt" {
		shared = passes.Shared(len(sizes))
	}
	for k, size := range sizes {
		c := &cells[k]
		c.Geometry = cache.DM(size, line)
		if shared == nil {
			c.Policy = func(geom cache.Geometry) (cache.Simulator, error) {
				return s.Build(geom)
			}
			continue
		}
		c.Direct = func(refs []trace.Ref, geom cache.Geometry) (cache.Stats, error) {
			if err := opt.CheckLen(len(refs)); err != nil {
				return cache.Stats{}, fmt.Errorf("policy: %w", err)
			}
			return shared.SimulateDM(refs, geom, s.lastLineEnabled(geom)), nil
		}
	}
	return cells
}
