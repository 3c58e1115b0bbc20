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

// BlockChunk is the number of references decoded for one call of a
// family's batch loop (AccessBlocks), by BatchAccess and by a size
// column alike: their block numbers fit in 8 KiB, which BatchAccess
// keeps on its stack.
const BlockChunk = 1 << 10

// DecodeBlocks writes the block number (addr >> lineShift) of every
// reference in refs to dst, which must be at least as long, and
// returns them.
//
//dynexcheck:hot
func DecodeBlocks(dst []uint64, refs []trace.Ref, lineShift uint) []uint64 {
	dst = dst[:len(refs)]
	lineShift &= 63
	for i := range refs {
		dst[i] = refs[i].Addr >> lineShift
	}
	return dst
}

// BatchAccess decodes refs a BlockChunk at a time and runs each chunk
// through AccessBlocks, the direct-mapped batch loop. A cache with an
// OnEvict hook takes Access once per reference instead, so hook calls
// come in exactly the order scalar Access makes them.
//
//dynexcheck:hot
func (c *DirectMapped) BatchAccess(refs []trace.Ref) BatchStats {
	before := c.stats
	if c.OnEvict != nil {
		for i := range refs {
			c.Access(refs[i].Addr)
		}
		return BatchStats{Stats: c.stats.Sub(before)}
	}
	var buf [BlockChunk]uint64
	for len(refs) > 0 {
		n := min(len(refs), BlockChunk)
		c.AccessBlocks(c.Decode(buf[:], refs[:n]))
		refs = refs[n:]
	}
	return BatchStats{Stats: c.stats.Sub(before)}
}

// BatchAccess decodes refs a BlockChunk at a time and runs each chunk
// through AccessBlocks, the LRU or FIFO batch loop. Random victims take
// Access once per reference instead, so RNG draws come in exactly the
// order scalar Access makes them.
//
//dynexcheck:hot
func (c *SetAssoc) BatchAccess(refs []trace.Ref) BatchStats {
	before := c.stats
	if c.policy == RandomRepl {
		for i := range refs {
			c.Access(refs[i].Addr)
		}
		return BatchStats{Stats: c.stats.Sub(before)}
	}
	var buf [BlockChunk]uint64
	for len(refs) > 0 {
		n := min(len(refs), BlockChunk)
		c.AccessBlocks(c.Decode(buf[:], refs[:n]))
		refs = refs[n:]
	}
	return BatchStats{Stats: c.stats.Sub(before)}
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
