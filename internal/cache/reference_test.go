package cache

import (
	"fmt"
	"math/rand"
	"slices"
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

// resident appends the blocks set holds to dst, sorted.
func (c *refSetAssoc) resident(dst []uint64, set uint64) []uint64 {
	for _, w := range c.sets[set] {
		if w.valid {
			dst = append(dst, w.tag)
		}
	}
	slices.Sort(dst)
	return dst
}

// resident appends the blocks set holds to dst, sorted.
func (c *SetAssoc) resident(dst []uint64, set uint64) []uint64 {
	base := set * c.ways
	dst = append(dst, c.tags[base:base+min(uint64(c.wave[set]), c.ways)]...)
	slices.Sort(dst)
	return dst
}

// TestSetAssocMatchesReference drives SetAssoc and the reference model
// through the same random mix of Access, BatchAccess and Contains calls,
// for every policy (RandomRepl with one seed on both sides), at 1, 2, 4
// and 8 ways and fully associative. Every return value, the cumulative
// Stats and the resident blocks of every set a step referenced must be
// identical after it, so a wrong victim fails at the step that picks
// it, and every set must match at the end. hooked hooks the reference
// model's evictions to end a BatchAccess call at each one, so every
// victim the batch loop picks is checked on its own; without it a call
// runs a whole random batch.
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
	evicted := false
	if hooked {
		want.OnEvict = func(uint64) { evicted = true }
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
	// check compares the cumulative Stats and the blocks of the sets
	// the step referenced, the only ones it can change.
	var sets, g, w []uint64
	check := func(step int, refs ...trace.Ref) {
		if got.Stats() != want.stats {
			t.Fatalf("seed %d step %d: Stats %+v, reference %+v", seed, step, got.Stats(), want.stats)
		}
		sets = sets[:0]
		for _, r := range refs {
			set := geom.Set(r.Addr)
			if slices.Contains(sets, set) {
				continue
			}
			sets = append(sets, set)
			g, w = got.resident(g[:0], set), want.resident(w[:0], set)
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d step %d: set %d holds %#x, reference %#x", seed, step, set, g, w)
			}
		}
	}
	cuts := 0
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			a := addr()
			if g, w := got.Access(a), want.Access(a); g != w {
				t.Fatalf("seed %d step %d: Access(%#x) = %v, reference %v", seed, step, a, g, w)
			}
			check(step, trace.Ref{Addr: a})
		case op < 8:
			refs := make([]trace.Ref, rng.Intn(40))
			for i := range refs {
				refs[i] = trace.Ref{Addr: addr(), Kind: trace.Load}
			}
			// One BatchAccess call per run of refs, a run ending at
			// the end of the batch or, hooked, at an eviction.
			before, from := want.stats, 0
			for i, r := range refs {
				evicted = false
				want.Access(r.Addr)
				if !evicted && i < len(refs)-1 {
					continue
				}
				if evicted {
					cuts++
				}
				if d, wd := got.BatchAccess(refs[from:i+1]).Stats, want.stats.Sub(before); d != wd {
					t.Fatalf("seed %d step %d: BatchAccess delta %+v, reference %+v", seed, step, d, wd)
				}
				check(step, refs[from:i+1]...)
				before, from = want.stats, i+1
			}
		default:
			a := addr()
			if g, w := got.Contains(a), want.Contains(a); g != w {
				t.Fatalf("seed %d step %d: Contains(%#x) = %v, reference %v", seed, step, a, g, w)
			}
			check(step, trace.Ref{Addr: a})
		}
	}
	for set := uint64(0); set < geom.Sets(); set++ {
		check(4000, trace.Ref{Addr: set * geom.LineSize})
	}
	if want.stats.Evictions == 0 {
		t.Fatalf("seed %d: the stream evicted nothing; the check is vacuous", seed)
	}
	if hooked && cuts == 0 {
		t.Fatalf("seed %d: no batch was cut at an eviction; the check is vacuous", seed)
	}
}
