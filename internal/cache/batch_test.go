package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// batchRefs builds a conflict-heavy deterministic reference stream that
// exercises hits, fills, and evictions at small geometries.
func batchRefs(seed int64, n int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(rng.Intn(1 << 12)), Kind: trace.Load}
	}
	return refs
}

// raggedBatches drives sim through BatchAccess with chunk sizes that
// never align with anything, returning the summed deltas.
func raggedBatches(t *testing.T, sim BatchSimulator, refs []trace.Ref) Stats {
	t.Helper()
	sizes := []int{1, 3, 17, 256, 1000}
	var sum Stats
	for pos, i := 0, 0; pos < len(refs); i++ {
		c := sizes[i%len(sizes)]
		if pos+c > len(refs) {
			c = len(refs) - pos
		}
		sum.Add(sim.BatchAccess(refs[pos : pos+c]).Stats)
		pos += c
	}
	return sum
}

// TestDirectMappedBatchMatchesScalar pins the dm kernel against scalar
// Access: identical cumulative stats, per-batch delta sum, and final
// line contents.
func TestDirectMappedBatchMatchesScalar(t *testing.T) {
	geom := DM(1<<8, 8)
	refs := batchRefs(1, 5000)

	scalar := MustDirectMapped(geom)
	for _, r := range refs {
		scalar.Access(r.Addr)
	}

	batched := MustDirectMapped(geom)
	sum := raggedBatches(t, batched, refs)

	if scalar.Stats() != batched.Stats() {
		t.Errorf("stats: scalar %+v != batched %+v", scalar.Stats(), batched.Stats())
	}
	if sum != batched.Stats() {
		t.Errorf("delta sum %+v != cumulative %+v", sum, batched.Stats())
	}
	if !reflect.DeepEqual(scalar.tags, batched.tags) || !reflect.DeepEqual(scalar.valid, batched.valid) {
		t.Error("final line contents diverged between scalar and batched driving")
	}
}

// TestBatchAccessEmptyBatch pins that an empty (or nil) batch is a
// no-op with a zero delta on every kernel.
func TestBatchAccessEmptyBatch(t *testing.T) {
	sims := []BatchSimulator{
		MustDirectMapped(DM(1<<8, 8)),
		MustSetAssoc(Geometry{Size: 1 << 8, LineSize: 8, Ways: 4}, LRU, 1),
	}
	for _, sim := range sims {
		if d := sim.BatchAccess(nil); d.Stats != (Stats{}) {
			t.Errorf("%T: nil batch delta = %+v, want zero", sim, d.Stats)
		}
		if d := sim.BatchAccess([]trace.Ref{}); d.Stats != (Stats{}) {
			t.Errorf("%T: empty batch delta = %+v, want zero", sim, d.Stats)
		}
		if sim.Stats() != (Stats{}) {
			t.Errorf("%T: empty batches advanced cumulative stats: %+v", sim, sim.Stats())
		}
	}
}

// TestSetAssocBatchEvictionSequence is the eviction-notification pin:
// for every replacement policy — RandomRepl included, with the same
// seed — the batched kernel must displace the exact same sequence of
// blocks through OnEvict as scalar Access, because a hooked cache's
// misses take c.fill on both paths.
func TestSetAssocBatchEvictionSequence(t *testing.T) {
	geom := Geometry{Size: 1 << 9, LineSize: 8, Ways: 4}
	refs := batchRefs(2, 6000)
	for _, pol := range []Policy{LRU, FIFO, RandomRepl} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			const seed = 99
			var scalarEv, batchEv []uint64

			scalar := MustSetAssoc(geom, pol, seed)
			scalar.OnEvict = func(block uint64) { scalarEv = append(scalarEv, block) }
			for _, r := range refs {
				scalar.Access(r.Addr)
			}

			batched := MustSetAssoc(geom, pol, seed)
			batched.OnEvict = func(block uint64) { batchEv = append(batchEv, block) }
			sum := raggedBatches(t, batched, refs)

			if scalar.Stats() != batched.Stats() {
				t.Errorf("stats: scalar %+v != batched %+v", scalar.Stats(), batched.Stats())
			}
			if sum != batched.Stats() {
				t.Errorf("delta sum %+v != cumulative %+v", sum, batched.Stats())
			}
			if len(scalarEv) == 0 {
				t.Fatal("stream produced no evictions; the pin is vacuous")
			}
			if !reflect.DeepEqual(scalarEv, batchEv) {
				t.Errorf("eviction sequences diverged: scalar %d evictions, batch %d", len(scalarEv), len(batchEv))
				for i := 0; i < len(scalarEv) && i < len(batchEv); i++ {
					if scalarEv[i] != batchEv[i] {
						t.Errorf("first divergence at eviction %d: scalar block %#x, batch block %#x", i, scalarEv[i], batchEv[i])
						break
					}
				}
			}
			if !reflect.DeepEqual(scalar.tags, batched.tags) || !reflect.DeepEqual(scalar.wave, batched.wave) {
				t.Error("final set contents (tags/waves) diverged")
			}
		})
	}
}

// TestSetAssocBatchInterleavesWithScalar pins that scalar and batched
// driving compose mid-stream: the kernel must leave every set's way
// order and wave exactly where scalar Access would.
func TestSetAssocBatchInterleavesWithScalar(t *testing.T) {
	geom := Geometry{Size: 1 << 9, LineSize: 8, Ways: 4}
	refs := batchRefs(3, 3000)

	scalar := MustSetAssoc(geom, LRU, 1)
	for _, r := range refs {
		scalar.Access(r.Addr)
	}

	mixed := MustSetAssoc(geom, LRU, 1)
	third := len(refs) / 3
	for _, r := range refs[:third] {
		mixed.Access(r.Addr)
	}
	mixed.BatchAccess(refs[third : 2*third])
	for _, r := range refs[2*third:] {
		mixed.Access(r.Addr)
	}

	if scalar.Stats() != mixed.Stats() {
		t.Errorf("stats: scalar %+v != mixed %+v", scalar.Stats(), mixed.Stats())
	}
	if !reflect.DeepEqual(scalar.wave, mixed.wave) {
		t.Error("set waves diverged after interleaved driving")
	}
	if !reflect.DeepEqual(scalar.tags, mixed.tags) {
		t.Error("set contents diverged after interleaved driving")
	}
}

// TestKernelShifts pins the power-of-two guard behind every flat kernel.
func TestKernelShifts(t *testing.T) {
	cases := []struct {
		lineSize, nsets uint64
		shift           int
		mask            uint64
		ok              bool
	}{
		{8, 64, 3, 63, true},
		{1, 1, 0, 0, true},
		{16, 1 << 10, 4, 1<<10 - 1, true},
		{0, 64, 0, 0, false},
		{8, 0, 0, 0, false},
		{12, 64, 0, 0, false},
		{8, 48, 0, 0, false},
	}
	for _, c := range cases {
		shift, mask, ok := kernelShifts(c.lineSize, c.nsets)
		if shift != c.shift || mask != c.mask || ok != c.ok {
			t.Errorf("kernelShifts(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
				c.lineSize, c.nsets, shift, mask, ok, c.shift, c.mask, c.ok)
		}
	}
}

// TestScalarOnlyStripsBatchPath pins the differential wrapper: the
// wrapped simulator loses BatchAccess (so RunRefs drives it scalar) but
// keeps Extras when the underlying simulator is Instrumented.
func TestScalarOnlyStripsBatchPath(t *testing.T) {
	sim := MustDirectMapped(DM(1<<8, 8))
	wrapped := ScalarOnly(sim)
	if _, ok := wrapped.(BatchSimulator); ok {
		t.Fatal("ScalarOnly result still exposes BatchAccess")
	}
	refs := batchRefs(4, 500)
	RunRefs(wrapped, refs)
	direct := MustDirectMapped(DM(1<<8, 8))
	RunRefs(direct, refs)
	if wrapped.Stats() != direct.Stats() {
		t.Errorf("scalar-only stats %+v != batched stats %+v", wrapped.Stats(), direct.Stats())
	}

	in := instrumentedBatchStub{}
	if _, ok := ScalarOnly(in).(Instrumented); !ok {
		t.Error("ScalarOnly dropped Extras from an Instrumented simulator")
	}
	if _, ok := ScalarOnly(in).(BatchSimulator); ok {
		t.Error("ScalarOnly kept BatchAccess on an Instrumented simulator")
	}
}

// instrumentedBatchStub implements both Instrumented and BatchSimulator,
// to prove ScalarOnly keeps the former and strips the latter.
type instrumentedBatchStub struct{}

func (instrumentedBatchStub) Access(uint64) Result               { return Hit }
func (instrumentedBatchStub) Stats() Stats                       { return Stats{} }
func (instrumentedBatchStub) Extras() []Counter                  { return []Counter{{Name: "x"}} }
func (instrumentedBatchStub) BatchAccess([]trace.Ref) BatchStats { return BatchStats{} }

// TestRunBatchedHonorsLimitAndErrors pins Run's batched path to the
// documented contract: the limit caps delivery mid-buffer, and a reader
// error flushes the buffered prefix so stats cover exactly n accesses.
func TestRunBatchedHonorsLimitAndErrors(t *testing.T) {
	refs := batchRefs(5, 3*BatchChunk/2)
	sim := MustDirectMapped(DM(1<<8, 8))
	n, err := Run(sim, trace.NewSliceReader(refs), 100)
	if err != nil || n != 100 {
		t.Fatalf("Run(limit=100) = %d, %v; want 100, nil", n, err)
	}
	if sim.Stats().Accesses != 100 {
		t.Errorf("sim saw %d accesses, want 100", sim.Stats().Accesses)
	}

	// The whole stream, spanning a chunk boundary.
	sim2 := MustDirectMapped(DM(1<<8, 8))
	n, err = Run(sim2, trace.NewSliceReader(refs), 0)
	if err != nil || n != len(refs) {
		t.Fatalf("Run(all) = %d, %v; want %d, nil", n, err, len(refs))
	}
	if got := sim2.Stats().Accesses; got != uint64(len(refs)) {
		t.Errorf("sim saw %d accesses, want %d", got, len(refs))
	}

	// Batched and scalar delivery agree on the same reader prefix.
	sim3 := MustDirectMapped(DM(1<<8, 8))
	RunRefs(ScalarOnly(sim3), refs)
	if sim2.Stats() != sim3.Stats() {
		t.Errorf("batched run %+v != scalar run %+v", sim2.Stats(), sim3.Stats())
	}
}
