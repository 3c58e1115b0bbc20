package policy

import (
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/multisim"
)

// Column returns a constructor for a multisim column kernel that
// drives this spec at every size in sizes (sharing one line size) in a
// single stream pass, or ok=false when the spec is not column-eligible.
// The constructor is deferred — like Cell's PolicyFunc it runs on an
// engine worker, freshly per attempt — and the returned kernel's
// Outcomes follow the order of sizes.
//
// Eligibility (DESIGN.md §15): dm, de (any option set), lru, and fifo
// columns are kernel-backed. opt needs the whole stream before its
// first decision (its next-use pass depends only on the line size, but
// a column kernel decides reference by reference), and victim / stream
// / de-stream carry auxiliary-buffer state whose traffic depends on
// each cell's own miss sequence, so those families fall back to
// cell-by-cell simulation. A column whose member geometries do not all
// validate is also ineligible, so the per-cell path surfaces the
// construction error for the right cell.
func (s Spec) Column(line uint64, sizes []uint64) (func() (engine.Column, error), bool) {
	ways := 1
	switch s.family {
	case "dm", "de":
	case "lru", "fifo":
		ways = s.ways
	default:
		return nil, false
	}
	if multisim.Validate(line, sizes, ways) != nil {
		return nil, false
	}
	// Copy: the constructor outlives this call and callers may reuse
	// their slice.
	sz := append([]uint64(nil), sizes...)
	switch s.family {
	case "dm":
		return func() (engine.Column, error) { return multisim.NewDM(line, sz) }, true
	case "de":
		cfg := multisim.DEConfig{
			StickyMax: s.sticky,
			Hashed:    s.hashed,
			Bits:      s.bits,
			AssumeHit: !s.coldMiss,
			// The register decision depends only on the line size, which
			// the whole column shares.
			LastLine: s.lastLineEnabled(cache.Geometry{Size: sz[0], LineSize: line, Ways: 1}),
		}
		return func() (engine.Column, error) { return multisim.NewDE(cfg, line, sz) }, true
	case "lru":
		return func() (engine.Column, error) { return multisim.NewLRU(line, sz, ways) }, true
	default: // fifo
		return func() (engine.Column, error) { return multisim.NewFIFO(line, sz, ways) }, true
	}
}
