package conformance

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
)

// batchVariants lists, per family, the option variants the differential
// battery runs beyond the family's default spec — chosen to exercise
// every kernel path: hashed vs table stores, multi-level sticky, the §6
// last-line register on and off, and wider associativity.
var batchVariants = map[string][]string{
	"de":        {"de:sticky=3", "de:store=hashed*4", "de:cold=miss,lastline", "de:nolastline"},
	"de-stream": {"de-stream:depth=2"},
	"lru":       {"lru:ways=4", "lru:ways=8"},
	"fifo":      {"fifo:ways=4", "fifo:ways=8"},
	"victim":    {"victim:entries=8"},
	"stream":    {"stream:depth=2"},
}

// CheckBatchRegistry is the batch/scalar differential battery: for every
// registered online policy family (and the option variants above) it
// asserts that driving a fresh simulator through BatchAccess — with
// ragged chunk sizes, so warmup and chunk boundaries never align — is
// bit-identical to scalar Access in cumulative Stats, per-batch deltas,
// and Extras counters, and that policy.Window measures identically
// through the batched and the scalar-only path at warmup boundaries
// landing mid-batch. Families without a kernel are verified to take the
// scalar fallback with identical results, so registering a new family
// gets the differential check for free.
func CheckBatchRegistry(t *testing.T, geom cache.Geometry, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	for _, f := range policy.Families() {
		if f.Direct {
			continue // whole-stream policies have no Access to differentiate
		}
		for _, specStr := range append([]string{f.Name}, batchVariants[f.Name]...) {
			sp, err := policy.Parse(specStr)
			if err != nil {
				t.Errorf("variant %q does not parse: %v", specStr, err)
				continue
			}
			t.Run(specStr, func(t *testing.T) { checkBatchSpec(t, sp, geom, opts) })
		}
	}
}

// checkBatchSpec runs the differential checks for one spec at one
// geometry.
func checkBatchSpec(t *testing.T, sp policy.Spec, geom cache.Geometry, opts Options) {
	t.Helper()
	// Long enough that a whole cache.BatchChunk fits with room to place a
	// warmup boundary inside the final chunk.
	n := cache.BatchChunk + 3000

	build := func() cache.Simulator {
		sim, err := sp.Build(geom)
		if err != nil {
			t.Fatalf("build %q at %v: %v", sp, geom, err)
		}
		return sim
	}

	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		refs := refStream(seed, n)

		scalar := build()
		for i := range refs {
			scalar.Access(refs[i].Addr)
		}

		batched := build()
		if b, ok := batched.(cache.BatchSimulator); ok {
			if empty := b.BatchAccess(nil); empty.Stats != (cache.Stats{}) {
				t.Fatalf("empty batch produced a delta: %+v", empty.Stats)
			}
			// Ragged chunks: boundaries never align with anything.
			sizes := []int{1, 7, 501, 4096, cache.BatchChunk}
			var sum cache.Stats
			for pos, i := 0, 0; pos < len(refs); i++ {
				c := sizes[i%len(sizes)]
				if pos+c > len(refs) {
					c = len(refs) - pos
				}
				sum.Add(b.BatchAccess(refs[pos : pos+c]).Stats)
				pos += c
			}
			if sum != batched.Stats() {
				t.Errorf("seed %d: batch deltas sum to %+v, cumulative stats %+v", seed, sum, batched.Stats())
			}
		} else {
			cache.RunRefs(batched, refs) // no kernel: the fallback must still match
		}

		if scalar.Stats() != batched.Stats() {
			t.Errorf("seed %d: scalar stats %+v != batched stats %+v", seed, scalar.Stats(), batched.Stats())
		}
		diffExtras(t, seed, cache.SnapshotExtras(scalar), cache.SnapshotExtras(batched))
	}

	// Windowed runs: the warmup snapshot must land identically whether
	// RunRefs drives batches or single accesses. Boundaries: no warmup,
	// mid-chunk, exactly one chunk, and inside the final chunk.
	refs := refStream(1, n)
	for _, warmup := range []int{0, 1537, cache.BatchChunk, n - 100} {
		mBatch, err := policy.Window(build(), refs, warmup)
		if err != nil {
			t.Fatalf("warmup %d (batched): %v", warmup, err)
		}
		mScalar, err := policy.Window(cache.ScalarOnly(build()), refs, warmup)
		if err != nil {
			t.Fatalf("warmup %d (scalar): %v", warmup, err)
		}
		if mBatch.Stats != mScalar.Stats {
			t.Errorf("warmup %d: batched window %+v != scalar window %+v", warmup, mBatch.Stats, mScalar.Stats)
		}
		diffExtras(t, int64(warmup), mScalar.Extras, mBatch.Extras)
	}
}

// diffExtras asserts two Extras snapshots are identical in length,
// names, order, and values.
func diffExtras(t *testing.T, tag int64, want, got []cache.Counter) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%d: extras length %d != %d (%v vs %v)", tag, len(got), len(want), got, want)
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%d: extras[%d] = %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}
