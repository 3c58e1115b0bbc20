package hierarchy

import "repro/internal/cache"

// metaDM is a cache that carries one hit-last bit of metadata per line
// (Figure 6: "Level 2: tags, lines, hit-last"). The paper's second level
// is direct-mapped; the implementation also supports set-associative L2s
// (LRU within a set) since real second levels of the era often were.
// Unlike cache.DirectMapped it separates probing (which counts an access
// and reports hit/miss) from filling, because the hierarchy's content
// policy — inclusive or exclusive — decides whether a missing block is
// actually stored.
type metaDM struct {
	// lineShift and setMask index by block number (cache.IndexShifts),
	// taken once here so no reference divides.
	lineShift uint
	setMask   uint64
	ways      int
	// lines is flat and set-major: set s holds lines [s*ways, (s+1)*ways).
	lines []metaWay
	clock uint64
	defH  bool // bit given to lines filled without an explicit value
	stats cache.Stats
	extra L2Extra
}

// metaWay is one line with its metadata.
type metaWay struct {
	tag   uint64
	valid bool
	hbit  bool
	stamp uint64 // LRU
}

// L2Extra counts content-policy events at the second level.
type L2Extra struct {
	// MovedUp counts blocks invalidated in L2 because L1 stored them
	// (exclusive policy).
	MovedUp uint64
	// Spills counts blocks inserted into L2 (demand fills and L1
	// victims).
	Spills uint64
}

func newMetaDM(geom cache.Geometry, defH bool) *metaDM {
	lineShift, setMask := cache.IndexShifts(geom)
	ways := geom.WaysPerSet()
	return &metaDM{lineShift: lineShift, setMask: setMask, ways: ways,
		lines: make([]metaWay, int(geom.Sets())*ways), defH: defH}
}

// find returns block's set and the way index holding block, or -1.
func (m *metaDM) find(block uint64) (set []metaWay, idx int) {
	base := int(block&m.setMask) * m.ways
	set = m.lines[base : base+m.ways : base+m.ways]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return set, i
		}
	}
	return set, -1
}

// probe looks addr up, counting one access. It does not fill; the caller
// applies the content policy. (Stats.Fills therefore counts inserts of
// any origin — demand fills and L1 spills — rather than partitioning
// misses.)
func (m *metaDM) probe(addr uint64) bool {
	m.clock++
	m.stats.Accesses++
	set, i := m.find(addr >> m.lineShift)
	if i >= 0 {
		set[i].stamp = m.clock
		m.stats.Hits++
		return true
	}
	m.stats.Misses++
	return false
}

// insert stores addr's block with the given hit-last bit, without
// counting an access. The LRU way is displaced if the set is full.
func (m *metaDM) insert(addr uint64, h bool) {
	m.clock++
	block := addr >> m.lineShift
	set, i := m.find(block)
	if i >= 0 {
		set[i].hbit = h
		set[i].stamp = m.clock
		return
	}
	victim := -1
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if victim < 0 || set[w].stamp < set[victim].stamp {
			victim = w
		}
	}
	if set[victim].valid {
		m.stats.Evictions++
	}
	set[victim] = metaWay{tag: block, valid: true, hbit: h, stamp: m.clock}
	m.stats.Fills++
	m.extra.Spills++
}

// lookupH returns the stored hit-last bit for block if the block is
// resident (no stats side effects). block is in L1/L2 line units (the two
// levels share a line size).
func (m *metaDM) lookupH(block uint64) (bool, bool) {
	set, i := m.find(block)
	if i >= 0 {
		return set[i].hbit, true
	}
	return false, false
}

// setH updates the stored bit if the block is resident.
func (m *metaDM) setH(addr uint64, h bool) {
	if set, i := m.find(addr >> m.lineShift); i >= 0 {
		set[i].hbit = h
	}
}

// invalidate drops addr's block if resident.
func (m *metaDM) invalidate(addr uint64) {
	if set, i := m.find(addr >> m.lineShift); i >= 0 {
		set[i].valid = false
	}
}

// contains reports residency without side effects.
func (m *metaDM) contains(addr uint64) bool {
	_, i := m.find(addr >> m.lineShift)
	return i >= 0
}
