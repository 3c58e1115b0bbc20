package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// The reference model: the original stamp-and-clock set-associative
// cache, kept verbatim (up to names) as the oracle SetAssoc must match
// bit for bit. It indexes with geom.Set and geom.Tag, keeps a valid
// flag and a stamp per way, advances a clock per access, and picks
// victims by scanning for the first invalid way, else the oldest stamp
// (last use for LRU, fill time for FIFO) — every mechanism the flat
// layout and its wave counters replace.

type refWay struct {
	tag   uint64
	valid bool
	stamp uint64 // LRU: last use; FIFO: fill time
}

type refSetAssoc struct {
	geom    Geometry
	policy  Policy
	sets    [][]refWay
	clock   uint64
	rng     *rand.Rand
	stats   Stats
	OnEvict func(block uint64)
}

func newRefSetAssoc(geom Geometry, policy Policy, seed int64) *refSetAssoc {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]refWay, geom.Sets())
	for i := range sets {
		sets[i] = make([]refWay, geom.WaysPerSet())
	}
	return &refSetAssoc{geom: geom, policy: policy, sets: sets, rng: rand.New(rand.NewSource(seed))}
}

func (c *refSetAssoc) Access(addr uint64) Result {
	c.clock++
	set := c.sets[c.geom.Set(addr)]
	tag := c.geom.Tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if c.policy == LRU {
				set[i].stamp = c.clock
			}
			c.stats.Record(Hit, false)
			return Hit
		}
	}
	evicted := c.fill(set, tag)
	c.stats.Record(MissFill, evicted)
	return MissFill
}

func (c *refSetAssoc) fill(set []refWay, tag uint64) bool {
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	evicted := false
	if victim < 0 {
		switch c.policy {
		case LRU, FIFO:
			victim = 0
			for i := 1; i < len(set); i++ {
				if set[i].stamp < set[victim].stamp {
					victim = i
				}
			}
		case RandomRepl:
			victim = c.rng.Intn(len(set))
		}
		evicted = true
		if c.OnEvict != nil {
			c.OnEvict(set[victim].tag)
		}
	}
	set[victim] = refWay{tag: tag, valid: true, stamp: c.clock}
	return evicted
}

func (c *refSetAssoc) Contains(addr uint64) bool {
	set := c.sets[c.geom.Set(addr)]
	tag := c.geom.Tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// TestSetAssocMatchesReference drives SetAssoc and the reference model
// through the same random mix of Access, BatchAccess and Contains calls, for every policy (RandomRepl with one seed on both sides), at
// 1, 2, 4 and 8 ways and fully associative, with and without an OnEvict
// hook. Every return value, the cumulative Stats after each call, and
// the OnEvict sequence must be identical.
func TestSetAssocMatchesReference(t *testing.T) {
	const size, line = 1 << 9, 8 // 64 lines
	for _, pol := range []Policy{LRU, FIFO, RandomRepl} {
		for _, ways := range []int{1, 2, 4, 8, 0} {
			for _, hooked := range []bool{false, true} {
				geom := Geometry{Size: size, LineSize: line, Ways: ways}
				name := fmt.Sprintf("%s/%s/hooked=%v", pol, geom, hooked)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						diffSetAssoc(t, geom, pol, hooked, seed)
					}
				})
			}
		}
	}
}

// diffSetAssoc runs one random call sequence against both models.
func diffSetAssoc(t *testing.T, geom Geometry, pol Policy, hooked bool, seed int64) {
	t.Helper()
	const replSeed = 99
	got := MustSetAssoc(geom, pol, replSeed)
	want := newRefSetAssoc(geom, pol, replSeed)
	var gotEv, wantEv []uint64
	if hooked {
		got.OnEvict = func(b uint64) { gotEv = append(gotEv, b) }
		want.OnEvict = func(b uint64) { wantEv = append(wantEv, b) }
	}
	rng := rand.New(rand.NewSource(seed))
	// Addresses span 4x the cache, so sets fill, conflict and evict; a
	// narrower window now and then gives LRU hits below way 0.
	addr := func() uint64 {
		span := 4 * geom.Size
		if rng.Intn(4) == 0 {
			span = geom.Size / 2
		}
		return uint64(rng.Int63n(int64(span)))
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			a := addr()
			if g, w := got.Access(a), want.Access(a); g != w {
				t.Fatalf("seed %d step %d: Access(%#x) = %v, reference %v", seed, step, a, g, w)
			}
		case op < 8:
			refs := make([]trace.Ref, rng.Intn(40))
			for i := range refs {
				refs[i] = trace.Ref{Addr: addr(), Kind: trace.Load}
			}
			before := want.stats
			for _, r := range refs {
				want.Access(r.Addr)
			}
			if d, wd := got.BatchAccess(refs).Stats, want.stats.Sub(before); d != wd {
				t.Fatalf("seed %d step %d: BatchAccess delta %+v, reference %+v", seed, step, d, wd)
			}
		default:
			a := addr()
			if g, w := got.Contains(a), want.Contains(a); g != w {
				t.Fatalf("seed %d step %d: Contains(%#x) = %v, reference %v", seed, step, a, g, w)
			}
		}
		if got.Stats() != want.stats {
			t.Fatalf("seed %d step %d: Stats %+v, reference %+v", seed, step, got.Stats(), want.stats)
		}
	}
	if want.stats.Evictions == 0 {
		t.Fatalf("seed %d: the stream evicted nothing; the check is vacuous", seed)
	}
	if hooked && len(wantEv) == 0 {
		t.Fatalf("seed %d: the hook saw no eviction; the check is vacuous", seed)
	}
	if !reflect.DeepEqual(gotEv, wantEv) {
		t.Fatalf("seed %d: OnEvict sequences diverged: %d evictions, reference %d", seed, len(gotEv), len(wantEv))
	}
}
