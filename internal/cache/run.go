package cache

import (
	"io"

	"repro/internal/trace"
)

// BatchChunk is the number of references RunRefs hands a BatchAccess
// kernel per call: large enough that the per-batch bookkeeping vanishes,
// small enough that a chunk stays cache-resident. Exported so tests can
// place warmup boundaries exactly on (or inside) a chunk.
const BatchChunk = 1 << 14

// Run drives sim with every reference from r (at most limit references;
// limit <= 0 means all) and returns the number of references delivered.
// Simulators with a BatchAccess fast path are driven in BatchChunk
// batches; the stats are identical either way (see BatchSimulator).
//
// Partial-count semantics, matching trace.Collect: on a
// reader error, the returned n is the number of references that were
// delivered to sim before the error — sim's Stats describe exactly those
// n accesses, so a caller can still report the valid prefix of a corrupt
// trace alongside the error.
func Run(sim Simulator, r trace.Reader, limit int) (int, error) {
	if b, ok := sim.(BatchSimulator); ok {
		return runBatched(b, r, limit)
	}
	n := 0
	for limit <= 0 || n < limit {
		ref, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		sim.Access(ref.Addr)
		n++
	}
	return n, nil
}

// runBatched is Run's fast path: references are buffered into BatchChunk
// batches between kernel calls. A reader error flushes the buffered
// prefix first, preserving Run's partial-count contract.
func runBatched(sim BatchSimulator, r trace.Reader, limit int) (int, error) {
	buf := make([]trace.Ref, 0, BatchChunk)
	n := 0
	for limit <= 0 || n+len(buf) < limit {
		ref, err := r.Next()
		if err != nil {
			sim.BatchAccess(buf)
			n += len(buf)
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		buf = append(buf, ref)
		if len(buf) == cap(buf) {
			sim.BatchAccess(buf)
			n += len(buf)
			buf = buf[:0]
		}
	}
	sim.BatchAccess(buf)
	return n + len(buf), nil
}

// RunRefs drives sim with an in-memory reference slice, through the
// BatchAccess fast path when sim provides one (BatchChunk references per
// kernel call) and one scalar Access per reference otherwise.
func RunRefs(sim Simulator, refs []trace.Ref) {
	if b, ok := sim.(BatchSimulator); ok {
		for len(refs) > BatchChunk {
			b.BatchAccess(refs[:BatchChunk])
			refs = refs[BatchChunk:]
		}
		b.BatchAccess(refs)
		return
	}
	for _, ref := range refs {
		sim.Access(ref.Addr)
	}
}

// MissRateOver runs sim over refs and returns the resulting miss rate
// (including any accesses recorded before the call).
func MissRateOver(sim Simulator, refs []trace.Ref) float64 {
	RunRefs(sim, refs)
	return sim.Stats().MissRate()
}
