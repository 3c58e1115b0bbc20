package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// batchRefs builds a conflict-heavy deterministic stream for the
// differential tests: hot conflicting lines plus noise, so hits, fills,
// defenses, overrides, and last-line runs all occur.
func batchRefs(seed int64, n int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		var a uint64
		switch rng.Intn(5) {
		case 0:
			a = 0
		case 1:
			a = 1 << 10 // conflicts with 0 at a 1KB direct-mapped cache
		case 2:
			a = uint64(rng.Intn(4)) * 4 // same-line run fodder
		default:
			a = uint64(rng.Intn(1 << 13))
		}
		refs[i] = trace.Ref{Addr: a, Kind: trace.Instr}
	}
	return refs
}

// hookEvent is one OnEvict invocation.
type hookEvent struct {
	block   uint64
	hitLast bool
}

// hookTrace records every OnEvict invocation on c, in sequence.
func hookTrace(c *Cache, out *[]hookEvent) {
	c.OnEvict = func(block uint64, hitLast bool) {
		*out = append(*out, hookEvent{block: block, hitLast: hitLast})
	}
}

// TestBatchMatchesScalar is the de-kernel differential: for every store
// and FSM variant, batched driving must match scalar Access in stats,
// extras, final FSM state and last-line register. Each variant runs
// twice: unhooked, where BatchAccess runs Decode and the AccessBlocks
// loop, and hooked, where it must also reproduce the OnEvict sequence,
// each eviction with its written-back hit-last bit, in order.
func TestBatchMatchesScalar(t *testing.T) {
	mkHashed := func() HitLastStore {
		s, err := NewHashedStore(64, false)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	variants := []struct {
		name string
		cfg  func() Config
	}{
		{"table-lastline", func() Config {
			return Config{Geometry: cache.DM(1<<10, 16), Store: NewTableStore(false), UseLastLine: true}
		}},
		{"table-nolastline", func() Config {
			return Config{Geometry: cache.DM(1<<10, 16), Store: NewTableStore(false)}
		}},
		{"table-assumehit", func() Config {
			return Config{Geometry: cache.DM(1<<10, 4), Store: NewTableStore(true), UseLastLine: true}
		}},
		{"hashed", func() Config {
			return Config{Geometry: cache.DM(1<<10, 16), Store: mkHashed(), UseLastLine: true}
		}},
		{"multisticky", func() Config {
			return Config{Geometry: cache.DM(1<<10, 16), Store: NewTableStore(false), UseLastLine: true, StickyMax: 3}
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				refs := batchRefs(seed, 8000)

				var scalarHooks []hookEvent
				scalar := Must(v.cfg())
				hookTrace(scalar, &scalarHooks)
				for i := range refs {
					scalar.Access(refs[i].Addr)
				}
				if len(scalarHooks) == 0 {
					t.Fatalf("seed %d: no hook events; the pin is vacuous", seed)
				}

				for _, hooked := range []bool{false, true} {
					var batchHooks []hookEvent
					batched := Must(v.cfg())
					if hooked {
						hookTrace(batched, &batchHooks)
					}
					sizes := []int{1, 5, 33, 512, 2048}
					var sum cache.Stats
					for pos, i := 0, 0; pos < len(refs); i++ {
						n := sizes[i%len(sizes)]
						if pos+n > len(refs) {
							n = len(refs) - pos
						}
						sum.Add(batched.BatchAccess(refs[pos : pos+n]).Stats)
						pos += n
					}

					if scalar.Stats() != batched.Stats() {
						t.Errorf("seed %d hooked=%v: stats scalar %+v != batched %+v",
							seed, hooked, scalar.Stats(), batched.Stats())
					}
					if sum != batched.Stats() {
						t.Errorf("seed %d hooked=%v: delta sum %+v != cumulative %+v",
							seed, hooked, sum, batched.Stats())
					}
					if !reflect.DeepEqual(scalar.Extras(), batched.Extras()) {
						t.Errorf("seed %d hooked=%v: extras scalar %v != batched %v",
							seed, hooked, scalar.Extras(), batched.Extras())
					}
					if hooked && !reflect.DeepEqual(scalarHooks, batchHooks) {
						t.Errorf("seed %d: hook sequences diverged (%d scalar, %d batch events)",
							seed, len(scalarHooks), len(batchHooks))
						for i := 0; i < len(scalarHooks) && i < len(batchHooks); i++ {
							if scalarHooks[i] != batchHooks[i] {
								t.Errorf("seed %d: first divergence at event %d: scalar %+v, batch %+v",
									seed, i, scalarHooks[i], batchHooks[i])
								break
							}
						}
					}
					if !reflect.DeepEqual(scalar.tags, batched.tags) ||
						!reflect.DeepEqual(scalar.state, batched.state) {
						t.Errorf("seed %d hooked=%v: FSM state diverged", seed, hooked)
					}
					if scalar.lastTag != batched.lastTag || scalar.lastValid != batched.lastValid {
						t.Errorf("seed %d hooked=%v: last-line register diverged: scalar (%#x,%v) batch (%#x,%v)",
							seed, hooked, scalar.lastTag, scalar.lastValid, batched.lastTag, batched.lastValid)
					}
				}
			}
		})
	}
}

// TestBatchInterleavesWithScalar pins mid-stream composition: switching
// between Access and BatchAccess must leave the FSM, the last-line
// register, and the hit-last store exactly where all-scalar driving
// would.
func TestBatchInterleavesWithScalar(t *testing.T) {
	cfg := func() Config {
		return Config{Geometry: cache.DM(1<<10, 16), Store: NewTableStore(false), UseLastLine: true}
	}
	refs := batchRefs(7, 6000)

	scalar := Must(cfg())
	for i := range refs {
		scalar.Access(refs[i].Addr)
	}

	mixed := Must(cfg())
	third := len(refs) / 3
	for i := range refs[:third] {
		mixed.Access(refs[i].Addr)
	}
	mixed.BatchAccess(refs[third : 2*third])
	for _, r := range refs[2*third:] {
		mixed.Access(r.Addr)
	}

	if scalar.Stats() != mixed.Stats() {
		t.Errorf("stats: scalar %+v != mixed %+v", scalar.Stats(), mixed.Stats())
	}
	if !reflect.DeepEqual(scalar.Extras(), mixed.Extras()) {
		t.Errorf("extras: scalar %v != mixed %v", scalar.Extras(), mixed.Extras())
	}
	if !reflect.DeepEqual(scalar.store, mixed.store) {
		t.Error("hit-last store contents diverged after interleaved driving")
	}
}

// TestBatchEmpty pins that an empty batch is a zero-delta no-op.
func TestBatchEmpty(t *testing.T) {
	c := Must(Config{Geometry: cache.DM(1<<10, 16), Store: NewTableStore(false), UseLastLine: true})
	if d := c.BatchAccess(nil); d.Stats != (cache.Stats{}) {
		t.Errorf("nil batch delta = %+v, want zero", d.Stats)
	}
	if c.Stats() != (cache.Stats{}) {
		t.Errorf("empty batch advanced stats: %+v", c.Stats())
	}
}
