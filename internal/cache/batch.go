package cache

import (
	"math/bits"

	"repro/internal/trace"
)

// BatchStats is the outcome of one BatchAccess call: the Stats delta
// contributed by exactly the batch's references. The simulator's
// cumulative Stats advance by the same delta, so scalar and batched
// driving are interchangeable mid-stream.
type BatchStats struct {
	// Stats is the per-batch counter delta.
	Stats Stats
}

// BatchSimulator is a Simulator with a batched fast path. BatchAccess
// must be semantically identical to calling Access once per reference in
// order — same state transitions, same hook invocations (OnEvict and
// friends) in the same sequence, and bit-identical cumulative Stats and
// Extras afterwards — while being free to hoist geometry constants out
// of the loop and accumulate counters per batch instead of per
// reference. internal/conformance's differential battery enforces the
// stat-identity invariant for every registered policy; the dynexcheck
// batch-stats rule bans per-reference Stats writes inside kernels.
type BatchSimulator interface {
	Simulator
	// BatchAccess runs every reference through the policy and returns
	// the batch's stat delta.
	BatchAccess(refs []trace.Ref) BatchStats
}

// scalarBatch drives sim one Access at a time and reports the delta via
// a Stats snapshot — the semantic reference every kernel must match, and
// the fallback for geometries the flat kernels do not handle.
func scalarBatch(sim Simulator, refs []trace.Ref) BatchStats {
	before := sim.Stats()
	for i := range refs {
		sim.Access(refs[i].Addr)
	}
	return BatchStats{Stats: sim.Stats().Sub(before)}
}

// kernelShifts resolves the hoisted address math of a flat kernel: the
// line-offset shift and the set-index mask. ok is false when either the
// line size or the set count is not a power of two — impossible for a
// Validate()d geometry, but kernels fall back to the scalar path rather
// than silently mis-indexing.
func kernelShifts(lineSize, nsets uint64) (lineShift int, setMask uint64, ok bool) {
	if lineSize == 0 || lineSize&(lineSize-1) != 0 || nsets == 0 || nsets&(nsets-1) != 0 {
		return 0, 0, false
	}
	return bits.TrailingZeros64(lineSize), nsets - 1, true
}

// BatchAccess is the direct-mapped flat kernel: geometry constants are
// hoisted out of the loop and outcome counters accumulate in locals,
// flushed into Stats once per batch. Evictions route through OnEvict
// exactly as the scalar path does.
//
//dynexcheck:hot
func (c *DirectMapped) BatchAccess(refs []trace.Ref) BatchStats {
	tags, valid := c.tags, c.valid
	lineShift, setMask, ok := kernelShifts(c.geom.LineSize, uint64(len(tags)))
	if !ok {
		return scalarBatch(c, refs)
	}
	onEvict := c.OnEvict
	var hits, fills, evictions uint64
	for i := range refs {
		block := refs[i].Addr >> lineShift
		set := block & setMask
		if valid[set] && tags[set] == block {
			hits++
			continue
		}
		if valid[set] {
			evictions++
			if onEvict != nil {
				onEvict(tags[set])
			}
		} else {
			valid[set] = true
		}
		tags[set] = block
		fills++
	}
	d := Stats{
		Accesses:  uint64(len(refs)),
		Hits:      hits,
		Misses:    fills,
		Fills:     fills,
		Evictions: evictions,
	}
	c.stats.Add(d)
	return BatchStats{Stats: d}
}

// BatchAccess is the set-associative flat kernel (LRU, FIFO, random).
// The replacement clock advances in a register and is synced back before
// every fill, so victim selection — including the RandomRepl RNG draw
// sequence — and the OnEvict hook fire exactly as under scalar Access.
//
//dynexcheck:hot
func (c *SetAssoc) BatchAccess(refs []trace.Ref) BatchStats {
	sets := c.sets
	lineShift, setMask, ok := kernelShifts(c.geom.LineSize, uint64(len(sets)))
	if !ok {
		return scalarBatch(c, refs)
	}
	lru := c.policy == LRU
	clock := c.clock
	var hits, fills, evictions uint64
	for i := range refs {
		clock++
		block := refs[i].Addr >> lineShift
		set := sets[block&setMask]
		hit := false
		for j := range set {
			if set[j].valid && set[j].tag == block {
				if lru {
					set[j].stamp = clock
				}
				hit = true
				break
			}
		}
		if hit {
			hits++
			continue
		}
		// Misses displace through the same fill (and OnEvict hook) as the
		// scalar path; fill stamps with c.clock, so sync it first.
		c.clock = clock
		if c.fill(set, block) {
			evictions++
		}
		fills++
	}
	c.clock = clock
	d := Stats{
		Accesses:  uint64(len(refs)),
		Hits:      hits,
		Misses:    fills,
		Fills:     fills,
		Evictions: evictions,
	}
	c.stats.Add(d)
	return BatchStats{Stats: d}
}

// ScalarOnly returns sim stripped of any batched fast path: the wrapper
// exposes exactly the scalar Simulator surface (plus Extras when sim is
// Instrumented), so RunRefs and the engine drive it one Access at a
// time. Differential tests use it to pin batch/scalar stat identity.
func ScalarOnly(sim Simulator) Simulator {
	if in, ok := sim.(Instrumented); ok {
		return scalarInstrumented{in}
	}
	return scalarSimulator{sim}
}

// scalarSimulator exposes only Access and Stats: embedding the interface
// value promotes the interface's methods and nothing else, so a wrapped
// BatchSimulator loses its fast path.
type scalarSimulator struct{ Simulator }

// scalarInstrumented additionally preserves Extras.
type scalarInstrumented struct{ Instrumented }
