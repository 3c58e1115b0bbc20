package engine

import (
	"context"
	"errors"
	"time"

	"repro/internal/cache"
)

// This file is the engine's observation surface: a Collector registered in
// Options receives a structured event stream describing how the run
// executed — when each cell was picked up (and how long it queued), how
// each attempt ended, and what the cell finally produced. The engine
// computes nothing from these events itself; internal/telemetry turns
// them into run reports, JSONL event traces, and /metrics series.
//
// The collector is strictly passive: registering one changes no
// scheduling decision and no Result, so simulation output is byte-
// identical with and without telemetry (DESIGN.md §8).

// Outcome classification for a cell or attempt, as reported to a
// Collector. Derived from the error by OutcomeOf.
const (
	// OutcomeOK is a successful cell or attempt.
	OutcomeOK = "ok"
	// OutcomePanic is a recovered *CellPanicError.
	OutcomePanic = "panic"
	// OutcomeTimeout is an attempt past Options.CellTimeout.
	OutcomeTimeout = "timeout"
	// OutcomeCanceled is a cell stopped by context cancellation.
	OutcomeCanceled = "canceled"
	// OutcomeError is any other failure (stream, constructor, Direct).
	OutcomeError = "error"
)

// OutcomeOf classifies an error into one of the Outcome constants.
func OutcomeOf(err error) string {
	var pe *CellPanicError
	switch {
	case err == nil:
		return OutcomeOK
	case errors.As(err, &pe):
		return OutcomePanic
	case errors.Is(err, ErrCellTimeout):
		return OutcomeTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return OutcomeCanceled
	default:
		return OutcomeError
	}
}

// CellStart reports a worker picking up a cell.
type CellStart struct {
	// Index is the cell's position in the Run's cells slice.
	Index int
	// Label echoes the cell's label.
	Label string
	// QueueWait is how long the cell sat scheduled before a worker
	// reached it (time since Run started).
	QueueWait time.Duration
}

// CellAttempt reports one finished attempt of a cell (a cell retried
// twice reports three attempts, the last one matching its CellFinish).
type CellAttempt struct {
	Index int
	Label string
	// Attempt is 1-based.
	Attempt int
	// Wall is this attempt's duration (excluding backoff sleeps).
	Wall time.Duration
	// Outcome classifies Err per OutcomeOf.
	Outcome string
	Err     error
}

// CellFinish reports a cell's final result.
type CellFinish struct {
	Index     int
	Label     string
	QueueWait time.Duration
	// Wall matches Result.Wall: all attempts plus backoff sleeps.
	Wall     time.Duration
	Attempts int
	// Refs is the number of references the winning attempt simulated
	// (Stats.Accesses; 0 for failed cells).
	Refs    uint64
	Outcome string
	Err     error
	// Extras echoes Result.Extras: the policy-specific counter snapshot
	// of the winning attempt (nil for failed/Direct/uninstrumented
	// cells), so collectors can surface FSM behavior live.
	Extras []cache.Counter
}

// Collector observes a Run. Methods are called from worker goroutines
// concurrently, so implementations must be goroutine-safe, and they sit
// on the scheduling path, so they must be cheap. Cells skipped after
// cancellation (never started) produce no events, mirroring OnResult.
type Collector interface {
	CellStarted(CellStart)
	CellAttempted(CellAttempt)
	CellFinished(CellFinish)
}

// Observe runs f as one cell of work done outside Run — a simulation
// its caller drives itself — and reports it to col as the engine
// reports a cell it ran: CellStarted, one CellAttempted and
// CellFinished, with f's wall time and the outcome of its error. f
// returns the number of references it simulated; a failed cell books
// none, as a failed engine cell does. A nil col only runs f. Observe
// returns f's error.
func Observe(col Collector, index int, label string, f func() (refs uint64, err error)) error {
	if col == nil {
		_, err := f()
		return err
	}
	col.CellStarted(CellStart{Index: index, Label: label})
	start := time.Now()
	refs, err := f()
	wall := time.Since(start)
	outcome := OutcomeOf(err)
	col.CellAttempted(CellAttempt{Index: index, Label: label, Attempt: 1,
		Wall: wall, Outcome: outcome, Err: err})
	if err != nil {
		refs = 0
	}
	col.CellFinished(CellFinish{Index: index, Label: label, Wall: wall,
		Attempts: 1, Refs: refs, Outcome: outcome, Err: err})
	return err
}
