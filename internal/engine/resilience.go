package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"time"
)

// This file is the engine's failure model: how a cell is allowed to fail,
// and what the pool does about it.
//
//   - Panics are recovered on the worker and become that cell's
//     *CellPanicError; one faulty policy never takes down the sweep.
//   - Errors classified transient (IsTransient) are retried with
//     jittered exponential backoff.
//   - Options.CellTimeout bounds each attempt via cooperative deadline
//     checks between simulation batches (ErrCellTimeout).
//
// DESIGN.md §7 documents the model; internal/faultinject provides the
// faults the test suite drives through it.

// CellPanicError is a panic recovered from a cell's Stream, Policy,
// Direct, or simulator Access, converted to an error on the worker so a
// single faulty cell cannot take down the pool.
type CellPanicError struct {
	// Label is the panicking cell's label.
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at the recovery point.
	Stack []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("engine: cell %q panicked: %v", e.Label, e.Value)
}

// ErrCellTimeout reports a cell attempt that exceeded Options.CellTimeout.
// The check is cooperative: the drive loop tests the deadline between
// simulation batches, so a runaway cell is charged a timeout at the first
// batch boundary past its deadline instead of hanging the sweep.
var ErrCellTimeout = errors.New("engine: cell exceeded CellTimeout")

// Retry configures transient-failure retry (see IsTransient) for every
// cell of a Run. The zero value disables retry.
type Retry struct {
	// Attempts is the maximum number of times a cell is run; <= 1 means
	// a single attempt (no retry).
	Attempts int
	// BaseDelay is the backoff before the second attempt (default 10ms).
	// It doubles for each further attempt, capped at MaxDelay, and each
	// sleep is uniformly jittered over [delay/2, delay] so retried cells
	// do not stampede a shared resource in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
}

// delay returns the jittered backoff after the given failed attempt
// (1-based).
func (r Retry) delay(attempt int) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := r.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	d := base << (attempt - 1)
	if d <= 0 || d > max { // overflow or past the cap
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// transienter is implemented by errors that mark themselves retryable;
// internal/faultinject's injected faults do.
type transienter interface{ Transient() bool }

// IsTransient is Retry's classifier: an error is transient if any error
// in its chain implements Transient() bool and reports true, or is the
// EIO that flaky storage surfaces for trace-file reads. Panics, timeouts,
// and context errors are not transient.
func IsTransient(err error) bool {
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, syscall.EIO)
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
