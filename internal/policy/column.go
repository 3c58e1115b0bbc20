package policy

import (
	"repro/internal/engine"
	"repro/internal/multisim"
)

// Column returns a constructor for a multisim column that drives this
// spec at every size in sizes (sharing one line size) in a single
// stream pass, or ok=false when the spec is not column-eligible. The
// constructor is deferred — like a Policy cell's PolicyFunc it runs on
// an engine worker, freshly per attempt — and builds every member with
// Build, as a lone cell would be built; the returned column's Outcomes
// follow the order of sizes.
//
// Eligibility (DESIGN.md §15): dm, de (any option set), lru, and fifo
// have batch loops a column can cascade. victim / stream / de-stream
// carry auxiliary-buffer state whose traffic depends on each cell's own
// miss sequence, so they run cell by cell. opt runs cell by cell too but
// shares its column's next-use pass (Cells): it needs the whole stream
// before its first decision while a column decides chunk by chunk, so
// as a column it would need a second, whole-stream branch of the
// engine's unit runner, and the pass is the part its cells have in
// common. A column whose member geometries do not all validate is also
// ineligible, so the per-cell path surfaces the construction error for
// the right cell.
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
	return func() (engine.Column, error) { return multisim.New(line, sz, s.Build) }, true
}
