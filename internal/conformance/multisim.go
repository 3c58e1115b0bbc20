package conformance

import (
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// multisimVariants lists, per column-eligible family, the option
// variants the column battery runs beyond the family's default spec —
// the same axes the batch battery covers (stores, sticky depth, the §6
// register, associativity), since the column kernels reimplement all of
// them.
var multisimVariants = map[string][]string{
	"de":   {"de:sticky=3", "de:store=hashed*4", "de:cold=miss,lastline", "de:nolastline"},
	"lru":  {"lru:ways=4", "lru:ways=1"},
	"fifo": {"fifo:ways=4", "fifo:ways=1", "fifo:ways=8"},
}

// CheckMultisimRegistry is the column-kernel differential battery: for
// every registered policy family it asks policy.Spec.Column for a
// column kernel over the size column and either (a) drives the kernel
// through ragged chunk sizes and asserts each member's Stats and
// Extras are bit-identical to simulating that (size, line, policy)
// cell on its own, or (b) — for families with no kernel — asserts the
// spec reports itself column-ineligible, so it falls back to the
// per-cell path rather than silently computing something else. A
// family added to internal/policy is therefore either column-verified
// or fallback-verified with no test changes.
func CheckMultisimRegistry(t *testing.T, line uint64, sizes []uint64, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	if opts.Refs == 0 {
		opts.Refs = 6000
	}
	for _, f := range policy.Families() {
		for _, specStr := range append([]string{f.Name}, multisimVariants[f.Name]...) {
			sp, err := policy.Parse(specStr)
			if err != nil {
				t.Errorf("variant %q does not parse: %v", specStr, err)
				continue
			}
			newCol, ok := sp.Column(line, sizes)
			if !ok {
				switch f.Name {
				case "dm", "de", "lru", "fifo":
					t.Errorf("spec %q should be column-eligible at line %d sizes %v", specStr, line, sizes)
				}
				continue
			}
			t.Run(specStr, func(t *testing.T) { checkColumnSpec(t, sp, newCol, line, sizes, opts) })
		}
	}
	// Ineligible geometry: a non-power-of-two set count must refuse the
	// column (the per-cell path owns the error reporting).
	if sp, err := policy.Parse("lru:ways=4"); err == nil {
		if _, ok := sp.Column(line, []uint64{sizes[0], sizes[0] * 3}); ok {
			t.Error("lru column accepted a non-power-of-two member size")
		}
	}
}

// checkColumnSpec drives one column kernel and compares every member
// against its own per-cell simulation, ragged chunking included, over
// the harness's conflict-heavy streams and over columnStream streams
// spanning the column.
func checkColumnSpec(t *testing.T, sp policy.Spec, newCol func() (engine.Column, error), line uint64, sizes []uint64, opts Options) {
	t.Helper()
	chunks := []int{1, 7, 501, 4096, cache.BatchChunk}
	var streams [][]trace.Ref
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		streams = append(streams, refStream(seed, opts.Refs), columnStream(seed, opts.Refs, sizes))
	}
	for si, refs := range streams {
		stream := int64(si)
		col, err := newCol()
		if err != nil {
			t.Fatalf("column constructor: %v", err)
		}
		rest := refs
		for ci := 0; len(rest) > 0; ci++ {
			n := chunks[ci%len(chunks)]
			if n > len(rest) {
				n = len(rest)
			}
			col.Batch(rest[:n])
			rest = rest[n:]
		}
		outs := col.Outcomes()
		if len(outs) != len(sizes) {
			t.Fatalf("stream %d: %d outcomes for %d sizes", stream, len(outs), len(sizes))
		}

		for k, size := range sizes {
			geom := cache.DM(size, line)
			sim, err := sp.Build(geom)
			if err != nil {
				t.Fatalf("stream %d size %d: per-cell build: %v", stream, size, err)
			}
			for i := range refs {
				sim.Access(refs[i].Addr)
			}
			if got, want := outs[k].Stats, sim.Stats(); got != want {
				t.Errorf("stream %d size %d: column %+v != per-cell %+v", stream, size, got, want)
			}
			diffExtras(t, stream, cache.SnapshotExtras(sim), outs[k].Extras)
		}
	}
}

// columnStream produces a deterministic instruction stream whose reuse
// and conflicts reach every member of a size column: a third of the
// references repeat an earlier one at a log-uniform distance (hits at
// every size), a third walk a conflict ladder (a few blocks aliasing at
// a random power-of-two stride between the smallest size and twice the
// largest, so each size has conflicts that the next size resolves), and
// the rest are uniform over twice the largest size.
func columnStream(seed int64, n int, sizes []uint64) []trace.Ref {
	lo, hi := sizes[0], sizes[0]
	for _, s := range sizes {
		lo, hi = min(lo, s), max(hi, s)
	}
	minLevel, levels := bits.Len64(lo)-1, bits.Len64(hi)-bits.Len64(lo)+2
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		var a uint64
		switch r := rng.Intn(9); {
		case r < 3 && i > 0:
			d := 1 << rng.Intn(bits.Len(uint(i)))
			a = refs[i-min(i, d+rng.Intn(d))].Addr
		case r < 6:
			a = uint64(rng.Intn(8))<<(minLevel+rng.Intn(levels)) | uint64(rng.Intn(64))
		default:
			a = uint64(rng.Int63n(int64(2 * hi)))
		}
		refs[i] = trace.Ref{Addr: a, Kind: trace.Instr}
	}
	return refs
}

// CheckStackProperty asserts LRU inclusion across power-of-two sizes on
// randomized streams, reference by reference: at a fixed line size and
// way count, every hit at size S is a hit at size 2S. No column kernel
// rests on it (the LRU column takes the MRA walk, see CheckMRAProperty);
// it stays as an independent oracle for the per-cell LRU simulator,
// with plain per-cell simulators on both sides.
func CheckStackProperty(t *testing.T, line uint64, size uint64, ways int, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	if opts.Refs == 0 {
		opts.Refs = 6000
	}
	spec := "lru:ways=" + strconv.Itoa(ways)
	sp, err := policy.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	small, err := sp.Build(cache.DM(size, line))
	if err != nil {
		t.Fatalf("build small: %v", err)
	}
	big, err := sp.Build(cache.DM(size*2, line))
	if err != nil {
		t.Fatalf("build big: %v", err)
	}
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		refs := refStream(seed, opts.Refs)
		for i := range refs {
			rs := small.Access(refs[i].Addr)
			rb := big.Access(refs[i].Addr)
			if rs == cache.Hit && rb != cache.Hit {
				t.Fatalf("seed %d ref %d (addr %#x): hit at %d bytes but %v at %d bytes — stack property violated",
					seed, i, refs[i].Addr, size, rb, size*2)
			}
		}
	}
	// The subset must be proper on a conflict-heavy stream, or the
	// assertion above is vacuous.
	if small.Stats().Hits >= big.Stats().Hits {
		t.Errorf("small cache hits (%d) not below big cache hits (%d); streams are not exercising capacity",
			small.Stats().Hits, big.Stats().Hits)
	}
}

// CheckMRAProperty asserts the residency fact the LRU and FIFO column
// kernels' early-out rests on, for the given set-associative family
// ("lru" or "fifo"), reference by reference, on randomized streams. At
// a fixed line size and way count, a reference whose block is the most
// recently accessed (MRA) block of its set at size S hits at S, hits at
// 2S, and is the MRA block of its set at 2S too. FIFO has no inclusion
// (a non-MRA hit at S can miss at 2S) and LRU's is more than the walk
// needs: MRA residency nests for both, and it is all the walk uses. The
// check tracks each set's last block itself and drives plain per-cell
// simulators at both sizes, sharing nothing with the column kernels.
func CheckMRAProperty(t *testing.T, family string, line uint64, size uint64, ways int, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	if opts.Refs == 0 {
		opts.Refs = 6000
	}
	spec := family + ":ways=" + strconv.Itoa(ways)
	sp, err := policy.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	small := cache.Geometry{Size: size, LineSize: line, Ways: ways}
	big := small
	big.Size *= 2
	build := func(g cache.Geometry) cache.Simulator {
		sim, err := sp.Build(g)
		if err != nil {
			t.Fatalf("build %v: %v", g, err)
		}
		return sim
	}
	var mra, mraOnlyBig, nonMRAHits int
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		for _, refs := range [][]trace.Ref{refStream(seed, opts.Refs), columnStream(seed, opts.Refs, []uint64{size, 2 * size})} {
			simS, simB := build(small), build(big)
			lastS, lastB := mraTracker(small), mraTracker(big)
			for i := range refs {
				addr := refs[i].Addr
				atS, atB := lastS(addr), lastB(addr)
				rs, rb := simS.Access(addr), simB.Access(addr)
				if atS && (rs != cache.Hit || rb != cache.Hit || !atB) {
					t.Fatalf("seed %d ref %d (addr %#x): MRA at %d bytes but %v there, %v at %d bytes (MRA there: %t)",
						seed, i, addr, size, rs, rb, size*2, atB)
				}
				switch {
				case atS:
					mra++
				case atB:
					mraOnlyBig++
				}
				if !atS && rs == cache.Hit {
					nonMRAHits++
				}
			}
		}
	}
	t.Logf("%d MRA references, %d MRA only at %d bytes, %d non-MRA hits at %d bytes", mra, mraOnlyBig, size*2, nonMRAHits, size)
	// Non-vacuity: the larger cache must see MRA references the smaller
	// one does not, and with two or more ways the way lookup below the
	// MRA must find hits. At one way the MRA block is the only resident
	// block, so every hit is an MRA reference.
	if mraOnlyBig == 0 {
		t.Errorf("no reference was MRA only at %d bytes; streams are not exercising the nesting", size*2)
	}
	if ways >= 2 && nonMRAHits == 0 {
		t.Errorf("no non-MRA reference hit at %d bytes with %d ways; streams are not exercising the way lookup", size, ways)
	}
	if ways == 1 && nonMRAHits != 0 {
		t.Errorf("%d non-MRA references hit a one-way cache, whose only resident block is its MRA", nonMRAHits)
	}
}

// mraTracker returns a function reporting whether addr's block is the
// most recently accessed block of its set under geom, which then
// records the access.
func mraTracker(geom cache.Geometry) func(addr uint64) bool {
	last := make(map[uint64]uint64)
	return func(addr uint64) bool {
		set, block := geom.Set(addr), geom.Block(addr)
		prev, ok := last[set]
		last[set] = block
		return ok && prev == block
	}
}
