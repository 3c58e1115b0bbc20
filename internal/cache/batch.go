package cache

import (
	"fmt"
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

// kernelShifts resolves the hoisted address math of a flat kernel: the
// line-offset shift and the set-index mask. ok is false when either the
// line size or the set count is not a power of two, which Validate rules
// out.
func kernelShifts(lineSize, nsets uint64) (lineShift int, setMask uint64, ok bool) {
	if lineSize == 0 || lineSize&(lineSize-1) != 0 || nsets == 0 || nsets&(nsets-1) != 0 {
		return 0, 0, false
	}
	return bits.TrailingZeros64(lineSize), nsets - 1, true
}

// IndexShifts returns the constants a per-reference path indexes by, so
// that g.Block(addr) is addr>>lineShift and g.Set(addr) is
// addr>>lineShift&setMask. Simulators take them once at construction;
// no path divides per reference. g must have passed Validate, which
// makes its line size and set count powers of two; IndexShifts panics
// otherwise.
func IndexShifts(g Geometry) (lineShift uint, setMask uint64) {
	shift, mask, ok := kernelShifts(g.LineSize, g.Sets())
	if !ok {
		panic(fmt.Sprintf("cache: IndexShifts of unvalidated geometry %+v", g))
	}
	return uint(shift), mask
}

// BatchAccess is the direct-mapped flat kernel: geometry constants are
// hoisted out of the loop and outcome counters accumulate in locals,
// flushed into Stats once per batch. Evictions route through OnEvict
// exactly as the scalar path does.
//
//dynexcheck:hot
func (c *DirectMapped) BatchAccess(refs []trace.Ref) BatchStats {
	lineShift, setMask := c.lineShift&63, c.setMask
	// Equal lengths let one bounds check per reference cover every
	// state array, and the masked shift needs no overflow test.
	nsets := setMask + 1
	tags, valid := c.tags[:nsets:nsets], c.valid[:nsets:nsets]
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

// BatchAccess is the set-associative flat kernel (LRU, FIFO, random). It
// tests way 0 first, which is an LRU set's most recently used, moves an
// LRU hit to the front, and runs LRU and FIFO fills and evictions
// inline. Random victims and OnEvict-hooked caches take the shared fill
// through Access instead, so RNG draws and hook calls come in exactly
// the order scalar Access makes them.
//
//dynexcheck:hot
func (c *SetAssoc) BatchAccess(refs []trace.Ref) BatchStats {
	if c.policy == RandomRepl || c.OnEvict != nil {
		before := c.stats
		for i := range refs {
			c.Access(refs[i].Addr)
		}
		return BatchStats{Stats: c.stats.Sub(before)}
	}
	tags, wave := c.tags, c.wave
	lineShift, setMask, ways := c.lineShift&63, c.setMask, c.ways
	lru := c.policy == LRU
	var fills, evictions uint64
	for i := range refs {
		block := refs[i].Addr >> lineShift
		set := block & setMask
		base := set * ways
		st := tags[base : base+ways : base+ways]
		w := uint64(wave[set])
		if w != 0 && st[0] == block {
			continue
		}
		valid := min(w, ways)
		j := uint64(1)
		for j < valid && st[j] != block {
			j++
		}
		if j < valid {
			if lru {
				toFront(st, j, block)
			}
			continue
		}
		fills++
		switch {
		case lru:
			if w < ways {
				j = w
				wave[set] = uint32(w + 1)
			} else {
				j = ways - 1
				evictions++
			}
			toFront(st, j, block)
		case w < ways:
			st[w] = block
			wave[set] = uint32(w + 1)
		default:
			st[w-ways] = block
			evictions++
			if w++; w == 2*ways {
				w = ways
			}
			wave[set] = uint32(w)
		}
	}
	n := uint64(len(refs))
	d := Stats{
		Accesses:  n,
		Hits:      n - fills,
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
