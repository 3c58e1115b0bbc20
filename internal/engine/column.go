package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// This file is the engine's unit runner. A unit is one schedulable
// piece of work. A column unit completes MANY cells at once: a
// single-pass multi-geometry kernel (internal/multisim) drives an
// entire power-of-two size column over one traversal of the shared
// reference stream. Every other cell is a one-member unit (cellColumn)
// driven by the same runner, so retries, deadlines, panic recovery and
// Collector events have one implementation. The engine's guarantees do
// not dilute: results, Collector events, OnResult calls, retries, and
// panic attribution remain per cell, and a run with column units
// produces a result table indistinguishable from the cell-by-cell one
// (grid CSV and checkpoint byte-identity against a per-cell Run are
// pinned by cmd/dynex-sweep's tests).

// ColumnOutcome is one member cell's share of a column unit's single
// pass: the full-stream Stats plus the policy-specific counters —
// exactly what the per-cell path would have produced for that cell.
type ColumnOutcome struct {
	Stats  cache.Stats
	Extras []cache.Counter
}

// Column is the engine-schedulable contract of a single-pass multi-cell
// kernel (internal/multisim implements it). Batch advances every member
// cell over the next chunk of the shared stream; the engine calls it in
// driveChunk batches with cooperative cancellation checks in between.
// Outcomes returns the cumulative per-member results, parallel to the
// owning Group's Indices.
type Column interface {
	Batch(refs []trace.Ref)
	Outcomes() []ColumnOutcome
}

// Group schedules one column unit over member cells of a RunGrouped
// call. The member cells at Indices complete atomically when the
// column's single pass finishes. Members must share one reference
// stream — the column is driven over Indices[0]'s Stream exactly once —
// which grid.Partition guarantees by construction (a column never
// crosses sources).
type Group struct {
	// Indices are the member cells' positions in the cells slice, in
	// column order: Outcomes()[k] describes cells[Indices[k]].
	Indices []int
	// NewColumn constructs a fresh kernel. Like PolicyFunc it runs on a
	// worker goroutine, once per attempt, so a retried column restarts
	// from clean state.
	NewColumn func() (Column, error)
}

// RunGrouped is Run with column units: cells covered by a group are
// simulated by that group's column kernel in one pass over the shared
// stream, cells covered by no group run individually as one-member
// units, and Results[i] describes Cells[i] either way. Groups must
// reference distinct in-range cells and carry a constructor; a
// malformed group set is an error before anything runs. A finishing
// column reports its members to OnResult in member order, in one
// serialized run of calls.
func RunGrouped(ctx context.Context, cells []Cell, groups []Group, opts Options) ([]Result, error) {
	results := make([]Result, len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	singles, err := ungrouped(len(cells), groups)
	if err != nil {
		return nil, err
	}
	var (
		resultMu sync.Mutex
		runStart = time.Now()
	)
	// finish publishes a unit's completed cells: OnResult per member in
	// member order.
	finish := func(indices ...int) {
		if opts.OnResult == nil {
			return
		}
		resultMu.Lock()
		defer resultMu.Unlock()
		for _, i := range indices {
			opts.OnResult(i, results[i])
		}
	}
	// Every unit — a group, or one ungrouped cell as a one-member unit —
	// runs through runGroup. Groups are scheduled before singletons:
	// they are the long poles, so starting them first keeps the pool
	// busy at the tail of a sweep.
	nUnits := len(groups) + len(singles)
	parfor(nUnits, clampWorkers(opts.Workers, nUnits), func(u int) {
		var (
			indices   []int
			newColumn func() (Column, error)
		)
		if u < len(groups) {
			indices, newColumn = groups[u].Indices, groups[u].NewColumn
		} else {
			k := u - len(groups)
			indices, newColumn = singles[k:k+1], newCellColumn(&cells[singles[k]])
		}
		if err := ctx.Err(); err != nil {
			for _, i := range indices {
				results[i] = Result{Label: cells[i].Label, Err: err}
			}
			return // skipped cells are not reported
		}
		runGroup(ctx, indices, newColumn, cells, results, opts, runStart)
		finish(indices...)
	})
	return results, ctx.Err()
}

// ungrouped validates the group set against n cells and returns the
// indices covered by no group, ascending.
func ungrouped(n int, groups []Group) ([]int, error) {
	covered := make([]bool, n)
	for gi, g := range groups {
		if len(g.Indices) == 0 {
			return nil, fmt.Errorf("engine: group %d has no member cells", gi)
		}
		if g.NewColumn == nil {
			return nil, fmt.Errorf("engine: group %d has no column constructor", gi)
		}
		for _, i := range g.Indices {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("engine: group %d references cell %d of %d", gi, i, n)
			}
			if covered[i] {
				return nil, fmt.Errorf("engine: cell %d is a member of more than one group", i)
			}
			covered[i] = true
		}
	}
	var singles []int
	for i, c := range covered {
		if !c {
			singles = append(singles, i)
		}
	}
	return singles, nil
}

// runGroup executes one unit — the member cells at indices, simulated
// by the columns newColumn builds — re-running transiently failing
// attempts per opts.Retry: every member starts together, the kernel
// makes one pass over the shared stream, and each member gets its own
// Result and Collector events. A recovered panic is re-homed onto every
// member as its own *CellPanicError, so failures attribute to
// individual cells even though the work was shared.
func runGroup(ctx context.Context, indices []int, newColumn func() (Column, error), cells []Cell, results []Result, opts Options, runStart time.Time) {
	var queueWait time.Duration
	if opts.Collector != nil {
		queueWait = time.Since(runStart)
		for _, i := range indices {
			opts.Collector.CellStarted(CellStart{Index: i, Label: cells[i].Label, QueueWait: queueWait})
		}
	}
	start := time.Now()
	var (
		outs     []ColumnOutcome
		err      error
		attempts int
	)
	for attempt := 1; ; attempt++ {
		attemptStart := time.Now()
		outs, err = attemptGroup(ctx, indices, newColumn, cells, opts.CellTimeout)
		attempts = attempt
		if opts.Collector != nil {
			wall := time.Since(attemptStart)
			for _, i := range indices {
				opts.Collector.CellAttempted(CellAttempt{
					Index: i, Label: cells[i].Label, Attempt: attempt,
					Wall: wall, Outcome: OutcomeOf(err), Err: err,
				})
			}
		}
		if err == nil || attempt >= opts.Retry.Attempts ||
			ctx.Err() != nil || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			!IsTransient(err) {
			break
		}
		if sleepCtx(ctx, opts.Retry.delay(attempt)) != nil {
			break // cancelled during backoff; keep the attempt's own error
		}
	}
	wall := time.Since(start)
	var pe *CellPanicError
	errors.As(err, &pe)
	for k, i := range indices {
		r := Result{Label: cells[i].Label, Wall: wall, Attempts: attempts}
		switch {
		case err == nil:
			r.Stats = outs[k].Stats
			r.Extras = outs[k].Extras
		case pe != nil:
			r.Err = &CellPanicError{Label: cells[i].Label, Value: pe.Value, Stack: pe.Stack}
		default:
			r.Err = err
		}
		results[i] = r
		if opts.Collector != nil {
			opts.Collector.CellFinished(CellFinish{
				Index: i, Label: r.Label, QueueWait: queueWait, Wall: r.Wall,
				Attempts: r.Attempts, Refs: r.Stats.Accesses,
				Outcome: OutcomeOf(r.Err), Err: r.Err, Extras: r.Extras,
			})
		}
	}
}

// attemptGroup runs one attempt of a unit, recovering panics and
// bounding the attempt by the per-cell timeout scaled to the member
// count (a column does the work of that many cells in one unit).
func attemptGroup(ctx context.Context, indices []int, newColumn func() (Column, error), cells []Cell, timeout time.Duration) (outs []ColumnOutcome, err error) {
	first := cells[indices[0]]
	defer func() {
		if v := recover(); v != nil {
			outs, err = nil, &CellPanicError{Label: first.Label, Value: v, Stack: debug.Stack()}
		}
	}()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout * time.Duration(len(indices)))
	}
	var refs []trace.Ref
	if first.Stream != nil {
		if refs, err = first.Stream(); err != nil {
			return nil, err
		}
	}
	if err := stepErr(ctx, deadline); err != nil {
		return nil, err
	}
	col, err := newColumn()
	if err != nil {
		return nil, err
	}
	if u, ok := col.(*cellColumn); ok && u.sim == nil {
		// A Direct cell simulates the whole stream in one call.
		if u.stats, err = u.cell.Direct(refs, u.cell.Geometry); err != nil {
			return nil, err
		}
		refs = nil
	}
	for len(refs) > 0 {
		n := driveChunk
		if n > len(refs) {
			n = len(refs)
		}
		col.Batch(refs[:n])
		refs = refs[n:]
		if len(refs) > 0 {
			if err := stepErr(ctx, deadline); err != nil {
				return nil, err
			}
		}
	}
	outs = col.Outcomes()
	if len(outs) != len(indices) {
		return nil, fmt.Errorf("engine: column produced %d outcomes for %d member cells", len(outs), len(indices))
	}
	return outs, nil
}
