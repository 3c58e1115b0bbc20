// Package engine schedules independent cache simulations across a bounded
// pool of workers.
//
// The paper's evaluation is thousands of independent (stream, geometry,
// policy) simulations — every point of every figure is one such cell — and
// trace-driven cache simulation parallelizes embarrassingly across cells
// (cf. DEW, arXiv:1506.03181). The engine turns a slice of Cells into a
// result table using min(GOMAXPROCS, n) workers by default, preserving
// input order in the output regardless of completion order, so callers
// that format results (CSV writers, figure tables) emit byte-identical
// output to a serial run.
//
// Guarantees:
//
//   - Determinism: Results[i] always describes Cells[i]. Completion order
//     never leaks into the result table.
//   - Bounded parallelism: at most Options.Workers cells are in flight.
//   - Cancellation: when ctx is done, workers stop picking up new cells;
//     cells never started carry ctx's error in Result.Err. Cells already
//     running stop at the next batch boundary of the drive loop (Direct
//     cells, which run the whole simulation themselves, finish).
//   - Isolation: a cell's failure — a stream or constructor error, or a
//     panic anywhere in Stream, Policy, Direct, or Access — lands in its
//     Result.Err without affecting other cells (see resilience.go).
//   - Resilience: errors classified transient are retried with jittered
//     backoff (Options.Retry); Options.CellTimeout bounds each attempt.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// PolicyFunc constructs a fresh simulator for a cell's geometry. It is
// called on a worker goroutine, once per cell.
type PolicyFunc func(geom cache.Geometry) (cache.Simulator, error)

// DirectFunc simulates policies that need the materialized stream up
// front (Belady-optimal replacement) and produce final stats directly.
type DirectFunc func(refs []trace.Ref, geom cache.Geometry) (cache.Stats, error)

// Cell is one schedulable simulation: a reference stream, a cache
// geometry, and a policy. Exactly one of Policy or Direct must be set.
type Cell struct {
	// Label identifies the cell in its Result (free-form; e.g.
	// "gcc/32768/4/de").
	Label string
	// Geometry is the cache shape handed to Policy or Direct.
	Geometry cache.Geometry
	// Stream materializes the cell's reference stream. It is called on a
	// worker goroutine, so a stream shared between cells must be safe for
	// concurrent materialization (experiments.Workloads is; a sync.Once
	// closure also works). A nil Stream yields an empty stream.
	Stream func() ([]trace.Ref, error)
	// Policy constructs the simulator; the engine drives it over the
	// stream and collects its Stats.
	Policy PolicyFunc
	// Direct runs the whole simulation itself (future-knowledge policies).
	Direct DirectFunc
}

// Result is the outcome of one cell.
type Result struct {
	// Label echoes the cell's label.
	Label string
	// Stats is the simulation outcome (zero when Err is set).
	Stats cache.Stats
	// Wall is the cell's wall-clock simulation time across all attempts,
	// including backoff sleeps and stream materialization when this cell
	// was the one to trigger it.
	Wall time.Duration
	// Attempts is the number of times the cell was run (1 without retry;
	// 0 for cells skipped after cancellation).
	Attempts int
	// Extras snapshots the simulator's policy-specific counters
	// (cache.Instrumented) after the winning attempt — sticky defenses,
	// exclusion flips, victim hits. Nil for failed cells, Direct cells,
	// and policies without counters. Purely observational: nothing in
	// Stats or the CSV output derives from it.
	Extras []cache.Counter
	// Err is the cell's failure (the last attempt's error), or the
	// context error for cells skipped after cancellation.
	Err error
}

// Options tunes a Run.
type Options struct {
	// Workers bounds in-flight cells; <= 0 means GOMAXPROCS. The bound is
	// additionally clamped to the number of cells.
	Workers int
	// Progress, when non-nil, is called after each completed cell with
	// (cells done, cells total). Calls are serialized, so the callback
	// needs no locking of its own; keep it cheap — workers block on it.
	Progress func(done, total int)
	// OnResult, when non-nil, is called with each finished cell's index
	// and Result as soon as the cell completes — before Run returns, so
	// callers can journal results incrementally (checkpointing) or abort
	// on failure thresholds. Calls are serialized with Progress; cells
	// skipped after cancellation are not reported.
	OnResult func(i int, r Result)
	// Retry re-runs cells whose errors are classified transient; see the
	// Retry type. The zero value disables retry.
	Retry Retry
	// CellTimeout bounds each cell attempt; 0 means no bound. The check
	// is cooperative (between simulation batches): a cell past its
	// deadline yields ErrCellTimeout instead of hanging the sweep.
	CellTimeout time.Duration
	// Collector, when non-nil, receives structured execution events
	// (cell start/attempt/finish with queue-wait and wall times) from
	// worker goroutines; see observe.go. It is passive: registering one
	// never changes scheduling or Results.
	Collector Collector
}

// errNoPolicy reports a cell with neither Policy nor Direct.
var errNoPolicy = errors.New("engine: cell needs exactly one of Policy or Direct")

// clampWorkers resolves the worker count for n units of work.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// parfor runs body(i) for i in [0, n) across the given number of workers.
func parfor(n, workers int, body func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// Run simulates every cell and returns the results in cell order. The
// returned slice always has len(cells) entries; inspect Result.Err per
// cell. The returned error is ctx's error if the run was cancelled
// mid-sweep, nil otherwise (per-cell failures do not abort the run).
// Run is RunGrouped with no column units: every cell is a one-member
// unit.
func Run(ctx context.Context, cells []Cell, opts Options) ([]Result, error) {
	return RunGrouped(ctx, cells, nil, opts)
}

// driveChunk is the number of references simulated between cooperative
// cancellation/deadline checks of the drive loop: small enough that a
// runaway cell is caught promptly, large enough that the check cost
// vanishes against the simulation.
const driveChunk = 1 << 15

// stepErr is the cooperative check between simulation batches.
func stepErr(ctx context.Context, deadline time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return ErrCellTimeout
	}
	return nil
}

// cellColumn adapts one ungrouped cell to the Column contract, so the
// unit runner (runGroup/attemptGroup) runs every cell, in a column or
// not. A Policy cell drives its own simulator with cache.RunRefs, so a
// single cell runs its family's batch loop through its own BatchAccess
// — the loop a multisim column runs for each member — and never
// becomes a one-member column. A Direct cell (sim == nil) needs the
// materialized stream up front, so attemptGroup hands it the whole
// stream in one call.
type cellColumn struct {
	cell  *Cell
	sim   cache.Simulator
	stats cache.Stats // a Direct cell's outcome
}

// newCellColumn returns the constructor of c's one-member unit, called
// once per attempt like a column's.
func newCellColumn(c *Cell) func() (Column, error) {
	return func() (Column, error) {
		switch {
		case c.Policy != nil && c.Direct == nil:
			sim, err := c.Policy(c.Geometry)
			if err != nil {
				return nil, err
			}
			return &cellColumn{cell: c, sim: sim}, nil
		case c.Direct != nil && c.Policy == nil:
			return &cellColumn{cell: c}, nil
		}
		return nil, errNoPolicy
	}
}

func (u *cellColumn) Batch(refs []trace.Ref) { cache.RunRefs(u.sim, refs) }

func (u *cellColumn) Outcomes() []ColumnOutcome {
	if u.sim == nil {
		return []ColumnOutcome{{Stats: u.stats}}
	}
	return []ColumnOutcome{{Stats: u.sim.Stats(), Extras: cache.SnapshotExtras(u.sim)}}
}

// ForEach runs f(i) for every i in [0, n) across a bounded worker pool —
// the engine's primitive for experiment bodies that aggregate arbitrary
// per-benchmark state instead of producing a Stats table. f is called at
// most once per index; indices not yet started when ctx is cancelled are
// skipped. Returns ctx's error if cancelled, nil otherwise.
func ForEach(ctx context.Context, n, workers int, f func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	parfor(n, clampWorkers(workers, n), func(i int) {
		if ctx.Err() != nil {
			return
		}
		f(i)
	})
	return ctx.Err()
}
