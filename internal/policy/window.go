package policy

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/opt"
	"repro/internal/trace"
)

// WindowDirect is implemented by simulators that cannot be driven one
// access at a time because the policy consumes the whole stream's future
// (Belady-optimal). Window detects it and delegates the entire
// measurement, warmup included.
type WindowDirect interface {
	SimulateWindow(refs []trace.Ref, warmup int) (cache.Stats, error)
}

// Measurement is the outcome of one windowed run: the warmup-subtracted
// stats, plus the policy-specific counters over the same window. Extras
// is non-nil exactly when the simulator is cache.Instrumented — on the
// incremental and the WindowDirect path alike (a WindowDirect simulator
// is responsible for window-scoping its own counters; the runner
// subtracts whatever the counters held before the call, so repeated
// measurements on one simulator stay delta-correct).
type Measurement struct {
	Stats  cache.Stats
	Extras []cache.Counter
}

// Window drives sim over refs and measures the post-warmup window: the
// first warmup references prime the simulator, and the returned stats
// and counters cover only the remainder. warmup == 0 measures the whole
// stream; a warmup that is negative or leaves nothing to measure is an
// error. This is the one warmup-snapshot implementation shared by every
// CLI and experiment. Simulators with a cache.BatchSimulator fast path
// are driven in batches through cache.RunRefs — the warmup snapshot
// lands between batches, and the measured stats are bit-identical to
// scalar driving (the conformance differential battery enforces this).
func Window(sim cache.Simulator, refs []trace.Ref, warmup int) (Measurement, error) {
	return WindowCtx(context.Background(), sim, refs, warmup)
}

// windowChunk is the number of references driven between cooperative
// cancellation checks of WindowCtx — the same order of magnitude as the
// engine's drive chunk, so an interrupt is honored promptly while the
// check cost vanishes against the simulation.
const windowChunk = 1 << 15

// WindowCtx is Window with cooperative cancellation: the stream is
// driven in windowChunk batches and ctx is checked between them, so a
// long single-cell run (cmd/dynex) stops promptly on SIGINT/SIGTERM
// instead of finishing the whole stream. The warmup snapshot still lands
// exactly on the warmup boundary, and an uncancelled WindowCtx run is
// bit-identical to Window. WindowDirect simulators run the whole
// measurement in one call and are only interruptible before it starts —
// the same caveat the engine's Direct cells carry.
func WindowCtx(ctx context.Context, sim cache.Simulator, refs []trace.Ref, warmup int) (Measurement, error) {
	if warmup < 0 {
		return Measurement{}, fmt.Errorf("policy: negative warmup %d", warmup)
	}
	if warmup > 0 && warmup >= len(refs) {
		return Measurement{}, fmt.Errorf("policy: warmup %d consumes the whole %d-reference stream; nothing left to measure", warmup, len(refs))
	}
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}
	if direct, ok := sim.(WindowDirect); ok {
		warmExtras := cache.SnapshotExtras(sim)
		stats, err := direct.SimulateWindow(refs, warmup)
		if err != nil {
			return Measurement{}, err
		}
		m := Measurement{Stats: stats}
		if extras := cache.SnapshotExtras(sim); extras != nil {
			m.Extras = cache.SubCounters(extras, warmExtras)
		}
		return m, nil
	}
	if err := runChunked(ctx, sim, refs[:warmup]); err != nil {
		return Measurement{}, err
	}
	warmStats := sim.Stats()
	warmExtras := cache.SnapshotExtras(sim)
	if err := runChunked(ctx, sim, refs[warmup:]); err != nil {
		return Measurement{}, err
	}
	m := Measurement{Stats: sim.Stats().Sub(warmStats)}
	if extras := cache.SnapshotExtras(sim); extras != nil {
		m.Extras = cache.SubCounters(extras, warmExtras)
	}
	return m, nil
}

// runChunked drives sim over refs in windowChunk batches, checking ctx
// between batches. cache.RunRefs applies the BatchAccess fast path
// within each batch, so chunking changes nothing about the stats.
//
//dynexcheck:hot
func runChunked(ctx context.Context, sim cache.Simulator, refs []trace.Ref) error {
	for len(refs) > 0 {
		n := windowChunk
		if n > len(refs) {
			n = len(refs)
		}
		cache.RunRefs(sim, refs[:n])
		refs = refs[n:]
		if len(refs) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// optSim adapts the whole-stream optimal simulator to the registry's
// Build interface. It is driven exclusively through the WindowDirect
// path; Access panics because the policy is undefined without the
// stream's future.
type optSim struct {
	geom     cache.Geometry
	lastLine bool
}

func (o *optSim) Access(uint64) cache.Result {
	panic("policy: the optimal policy needs the whole stream's future; drive it with policy.Window, not Access")
}

func (o *optSim) Stats() cache.Stats { return cache.Stats{} }

// SimulateWindow implements WindowDirect via opt.SimulateDMWindow. The
// geometry was validated at Build and the stream length is checked
// here, so the call cannot panic.
func (o *optSim) SimulateWindow(refs []trace.Ref, warmup int) (cache.Stats, error) {
	if warmup < 0 || (warmup > 0 && warmup >= len(refs)) {
		return cache.Stats{}, fmt.Errorf("policy: bad warmup %d for %d references", warmup, len(refs))
	}
	if err := opt.CheckLen(len(refs)); err != nil {
		return cache.Stats{}, fmt.Errorf("policy: %w", err)
	}
	return opt.SimulateDMWindow(refs, o.geom, o.lastLine, warmup), nil
}
