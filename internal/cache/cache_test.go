package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/patterns"
	"repro/internal/trace"
)

func TestDirectMappedBasics(t *testing.T) {
	c := MustDirectMapped(DM(64, 16)) // 4 lines
	if got := c.Access(0); got != MissFill {
		t.Errorf("cold access = %v", got)
	}
	if got := c.Access(4); got != Hit { // same 16B line
		t.Errorf("same-line access = %v", got)
	}
	if got := c.Access(64); got != MissFill { // conflicts with 0
		t.Errorf("conflict access = %v", got)
	}
	if got := c.Access(0); got != MissFill { // was evicted
		t.Errorf("re-access after conflict = %v", got)
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 1 || s.Misses != 3 || s.Evictions != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDirectMappedThrashes(t *testing.T) {
	// The paper's (ab)^10 pattern: a conventional DM cache misses on every
	// reference.
	c := MustDirectMapped(DM(1<<10, 4))
	refs := patterns.WithinLoop(10).Refs(0, 1<<10)
	RunRefs(c, refs)
	if mr := c.Stats().MissRate(); mr != 1.0 {
		t.Errorf("(ab)^10 miss rate = %v, want 1.0", mr)
	}
}

func TestDirectMappedBetweenLoopsIsOptimal(t *testing.T) {
	// (a^10 b^10)^10: a conventional DM cache already matches optimal, 10%.
	c := MustDirectMapped(DM(1<<10, 4))
	refs := patterns.BetweenLoops(10, 10).Refs(0, 1<<10)
	RunRefs(c, refs)
	if mr := c.Stats().MissRate(); mr != patterns.BetweenLoopsDM(10, 10) {
		t.Errorf("miss rate = %v, want %v", mr, patterns.BetweenLoopsDM(10, 10))
	}
}

func TestDirectMappedLoopLevels(t *testing.T) {
	c := MustDirectMapped(DM(1<<10, 4))
	refs := patterns.LoopLevels(10, 10).Refs(0, 1<<10)
	RunRefs(c, refs)
	want := patterns.LoopLevelsDM(10, 10)
	if mr := c.Stats().MissRate(); mr != want {
		t.Errorf("miss rate = %v, want %v", mr, want)
	}
}

func TestDirectMappedHelpers(t *testing.T) {
	c := MustDirectMapped(DM(64, 16))
	if c.Contains(0) {
		t.Error("empty cache should not contain 0")
	}
	c.Access(0)
	if !c.Contains(0) || !c.Contains(12) {
		t.Error("access did not fill")
	}
	c.Access(64)
	if c.Contains(0) || !c.Contains(64) {
		t.Error("conflicting access did not replace the resident")
	}
	if c.Stats().Accesses != 2 {
		t.Error("Contains must not count accesses")
	}
	c.Reset()
	if c.Stats().Accesses != 0 || c.Contains(64) {
		t.Error("Reset did not clear")
	}
}

func TestDirectMappedOnEvict(t *testing.T) {
	c := MustDirectMapped(DM(64, 16))
	var evicted []uint64
	c.OnEvict = func(block uint64) { evicted = append(evicted, block) }
	c.Access(0)
	c.Access(64)  // evicts block 0
	c.Access(128) // evicts block 4 (=64/16)
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 4 {
		t.Errorf("evicted = %v", evicted)
	}
}

func TestNewDirectMappedRejectsBadGeometry(t *testing.T) {
	if _, err := NewDirectMapped(Geometry{Size: 3, LineSize: 4}); err == nil {
		t.Error("bad geometry accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDirectMapped did not panic")
		}
	}()
	MustDirectMapped(Geometry{Size: 3, LineSize: 4})
}

func TestSetAssocHoldsConflictingPair(t *testing.T) {
	// A 2-way cache holds both halves of the (ab)^n pattern: only the two
	// cold misses.
	c := MustSetAssoc(Geometry{Size: 1 << 10, LineSize: 4, Ways: 2}, LRU, 1)
	refs := patterns.WithinLoop(10).Refs(0, 512) // a and b map to one set
	RunRefs(c, refs)
	s := c.Stats()
	if s.Misses != 2 {
		t.Errorf("misses = %d, want 2 (cold only): %+v", s.Misses, s)
	}
}

func TestSetAssocLRUOrder(t *testing.T) {
	// 2 ways, single set (fully associative over 2 lines).
	c := MustSetAssoc(Geometry{Size: 32, LineSize: 16, Ways: 2}, LRU, 1)
	c.Access(0)  // miss, fill
	c.Access(16) // miss, fill
	c.Access(0)  // hit; 16 now LRU
	c.Access(32) // miss, evicts 16
	if !c.Contains(0) {
		t.Error("LRU evicted the recently used block")
	}
	if c.Contains(16) {
		t.Error("LRU kept the least recently used block")
	}
}

func TestSetAssocFIFOOrder(t *testing.T) {
	c := MustSetAssoc(Geometry{Size: 32, LineSize: 16, Ways: 2}, FIFO, 1)
	c.Access(0)
	c.Access(16)
	c.Access(0)  // hit: does not refresh FIFO age
	c.Access(32) // evicts 0 (oldest fill)
	if c.Contains(0) {
		t.Error("FIFO kept the oldest block")
	}
	if !c.Contains(16) {
		t.Error("FIFO evicted the newer block")
	}
}

func TestSetAssocRandomStaysInSet(t *testing.T) {
	c := MustSetAssoc(Geometry{Size: 128, LineSize: 16, Ways: 2}, RandomRepl, 42)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		c.Access(uint64(rng.Intn(64)) * 16)
	}
	s := c.Stats()
	if s.Accesses != 1000 || s.Hits+s.Misses != 1000 {
		t.Errorf("stats inconsistent: %+v", s)
	}
}

func TestSetAssocFullyAssociativeLRU(t *testing.T) {
	// 4 lines fully associative; working set of 4 blocks never misses
	// after warmup no matter the addresses.
	c := MustSetAssoc(Geometry{Size: 64, LineSize: 16, Ways: 0}, LRU, 1)
	blocks := []uint64{0, 1 << 20, 3 << 13, 9 << 9}
	for round := 0; round < 10; round++ {
		for _, b := range blocks {
			c.Access(b)
		}
	}
	if m := c.Stats().Misses; m != 4 {
		t.Errorf("misses = %d, want 4 cold misses", m)
	}
}

func TestSetAssocHelpers(t *testing.T) {
	c := MustSetAssoc(Geometry{Size: 64, LineSize: 16, Ways: 2}, LRU, 1)
	if c.Contains(0) {
		t.Error("empty cache should not contain 0")
	}
	c.Access(0)
	if !c.Contains(0) {
		t.Error("access did not fill")
	}
	if c.Stats().Accesses != 1 {
		t.Error("Contains must not count accesses")
	}
	c.Reset()
	if c.Contains(0) || c.Stats().Accesses != 0 {
		t.Error("reset incomplete")
	}
}

func TestSetAssocOnEvict(t *testing.T) {
	c := MustSetAssoc(Geometry{Size: 32, LineSize: 16, Ways: 2}, LRU, 1)
	var ev []uint64
	c.OnEvict = func(b uint64) { ev = append(ev, b) }
	c.Access(0)
	c.Access(16)
	c.Access(32)
	if len(ev) != 1 || ev[0] != 0 {
		t.Errorf("evictions = %v, want [0]", ev)
	}
}

func TestLRUBeatsDirectMappedOnConflicts(t *testing.T) {
	// Property (paper §1): for conflict-heavy streams, a 2-way LRU cache
	// of the same size never has more misses than direct-mapped.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dm := MustDirectMapped(DM(256, 4))
		sa := MustSetAssoc(Geometry{Size: 256, LineSize: 4, Ways: 2}, LRU, 1)
		// Two conflicting hot addresses plus noise.
		a, b := uint64(0), uint64(256)
		for i := 0; i < 2000; i++ {
			var addr uint64
			switch rng.Intn(4) {
			case 0:
				addr = a
			case 1:
				addr = b
			default:
				addr = uint64(rng.Intn(1 << 12))
			}
			dm.Access(addr)
			sa.Access(addr)
		}
		return sa.Stats().Misses <= dm.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsRecordAndAdd(t *testing.T) {
	var s Stats
	s.Record(Hit, false)
	s.Record(MissFill, true)
	s.Record(MissBypass, false)
	if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 || s.Fills != 1 || s.Bypasses != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v", s)
	}
	var total Stats
	total.Add(s)
	total.Add(s)
	if total.Accesses != 6 || total.Evictions != 2 {
		t.Errorf("Add = %+v", total)
	}
	if s.MissRate() != 2.0/3.0 || s.HitRate() != 1.0/3.0 {
		t.Errorf("rates = %v, %v", s.MissRate(), s.HitRate())
	}
	var empty Stats
	if empty.MissRate() != 0 || empty.HitRate() != 0 {
		t.Error("empty stats rates should be 0")
	}
}

func TestStatsSub(t *testing.T) {
	var warm, final Stats
	warm.Record(MissFill, false)
	warm.Record(Hit, false)
	final = warm
	final.Record(Hit, false)
	final.Record(MissBypass, false)
	steady := final.Sub(warm)
	if steady.Accesses != 2 || steady.Hits != 1 || steady.Misses != 1 || steady.Bypasses != 1 {
		t.Errorf("steady = %+v", steady)
	}
	if steady.MissRate() != 0.5 {
		t.Errorf("steady miss rate = %v", steady.MissRate())
	}
}

func TestResultStrings(t *testing.T) {
	if Hit.String() != "hit" || MissFill.String() != "miss+fill" ||
		MissBypass.String() != "miss+bypass" || Result(9).String() != "unknown" {
		t.Error("Result.String mismatch")
	}
	if Hit.IsMiss() || !MissFill.IsMiss() || !MissBypass.IsMiss() {
		t.Error("IsMiss mismatch")
	}
	if LRU.String() != "lru" || FIFO.String() != "fifo" || RandomRepl.String() != "random" || Policy(9).String() != "unknown" {
		t.Error("Policy.String mismatch")
	}
}

func TestRunDrivers(t *testing.T) {
	refs := []trace.Ref{{Addr: 0, Kind: trace.Instr}, {Addr: 64, Kind: trace.Instr}, {Addr: 0, Kind: trace.Instr}}
	c := MustDirectMapped(DM(64, 16))
	n, err := Run(c, trace.NewSliceReader(refs), 0)
	if err != nil || n != 3 {
		t.Fatalf("Run = %d, %v", n, err)
	}
	if c.Stats().Accesses != 3 {
		t.Errorf("accesses = %d", c.Stats().Accesses)
	}
	c2 := MustDirectMapped(DM(64, 16))
	n, err = Run(c2, trace.NewSliceReader(refs), 2)
	if err != nil || n != 2 || c2.Stats().Accesses != 2 {
		t.Fatalf("limited Run = %d, %v, accesses %d", n, err, c2.Stats().Accesses)
	}
	c3 := MustDirectMapped(DM(64, 16))
	if mr := MissRateOver(c3, refs); mr != 1.0 {
		t.Errorf("MissRateOver = %v, want 1.0 (0 and 64 conflict)", mr)
	}
}

func TestNewSetAssocRejectsBadInput(t *testing.T) {
	if _, err := NewSetAssoc(Geometry{Size: 3, LineSize: 4, Ways: 1}, LRU, 1); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := NewSetAssoc(DM(64, 16), Policy(9), 1); err == nil {
		t.Error("bad policy accepted")
	}
}
