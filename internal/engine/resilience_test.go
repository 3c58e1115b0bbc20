package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// transientErr is a test error that classifies as transient.
type transientErr struct{ n int }

func (e *transientErr) Error() string   { return fmt.Sprintf("transient failure %d", e.n) }
func (e *transientErr) Transient() bool { return true }

// flakyStream fails with a transient error the first fails calls, then
// yields refs — the shape Retry must survive.
func flakyStream(refs []trace.Ref, fails int) func() ([]trace.Ref, error) {
	var mu sync.Mutex
	n := 0
	return func() ([]trace.Ref, error) {
		mu.Lock()
		defer mu.Unlock()
		if n < fails {
			n++
			return nil, &transientErr{n: n}
		}
		return refs, nil
	}
}

// panicSim panics on its at-th access.
type panicSim struct {
	inner cache.Simulator
	at    uint64
	n     uint64
}

func (p *panicSim) Access(addr uint64) cache.Result {
	p.n++
	if p.n >= p.at {
		panic(fmt.Sprintf("injected panic at access %d", p.n))
	}
	return p.inner.Access(addr)
}

func (p *panicSim) Stats() cache.Stats { return p.inner.Stats() }

// TestFaultPanicIsolation checks that a panic anywhere in a cell —
// simulator Access, Stream, Policy constructor, or Direct — becomes that
// cell's *CellPanicError (with a stack) while every other cell completes.
func TestFaultPanicIsolation(t *testing.T) {
	geom := cache.DM(64, 4)
	refs := seqRefs(0, 64)
	ok := func() ([]trace.Ref, error) { return refs, nil }
	cells := []Cell{
		{Label: "panic-access", Geometry: geom, Stream: ok,
			Policy: func(g cache.Geometry) (cache.Simulator, error) {
				return &panicSim{inner: cache.MustDirectMapped(g), at: 10}, nil
			}},
		{Label: "panic-stream", Geometry: geom,
			Stream: func() ([]trace.Ref, error) { panic("stream exploded") },
			Policy: dmPolicy},
		{Label: "panic-policy", Geometry: geom, Stream: ok,
			Policy: func(cache.Geometry) (cache.Simulator, error) { panic("constructor exploded") }},
		{Label: "panic-direct", Geometry: geom, Stream: ok,
			Direct: func([]trace.Ref, cache.Geometry) (cache.Stats, error) { panic("direct exploded") }},
		{Label: "ok", Geometry: geom, Stream: ok, Policy: dmPolicy},
	}
	results, err := Run(context.Background(), cells, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[:4] {
		var pe *CellPanicError
		if !errors.As(r.Err, &pe) {
			t.Errorf("%s: err = %v, want CellPanicError", r.Label, r.Err)
			continue
		}
		if pe.Label != r.Label || len(pe.Stack) == 0 {
			t.Errorf("%s: panic error missing label/stack: %+v", r.Label, pe)
		}
		if r.Stats != (cache.Stats{}) {
			t.Errorf("%s: panicked cell has non-zero stats %+v", r.Label, r.Stats)
		}
	}
	if r := results[4]; r.Err != nil || r.Stats.Accesses != uint64(len(refs)) {
		t.Errorf("ok cell poisoned by neighbors: %+v", r)
	}
}

// TestFaultRetryTransient checks a transiently failing stream succeeds
// after retries, with the attempt count recorded.
func TestFaultRetryTransient(t *testing.T) {
	refs := seqRefs(0, 32)
	cells := []Cell{{
		Label:    "flaky",
		Geometry: cache.DM(64, 4),
		Stream:   flakyStream(refs, 2),
		Policy:   dmPolicy,
	}}
	results, err := Run(context.Background(), cells, Options{
		Retry: Retry{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatalf("flaky cell failed despite retry: %v", r.Err)
	}
	if r.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", r.Attempts)
	}
	if r.Stats.Accesses != uint64(len(refs)) {
		t.Errorf("stats = %+v, want %d accesses", r.Stats, len(refs))
	}
}

// TestFaultRetryExhausted checks a persistently failing cell keeps its
// last error and the full attempt count.
func TestFaultRetryExhausted(t *testing.T) {
	cells := []Cell{{
		Label:    "doomed",
		Geometry: cache.DM(64, 4),
		Stream:   flakyStream(nil, 1<<30),
		Policy:   dmPolicy,
	}}
	results, err := Run(context.Background(), cells, Options{
		Retry: Retry{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	var te *transientErr
	if !errors.As(r.Err, &te) {
		t.Fatalf("err = %v, want transientErr", r.Err)
	}
	if r.Attempts != 3 || te.n != 3 {
		t.Errorf("Attempts = %d (stream saw %d), want 3", r.Attempts, te.n)
	}
}

// TestFaultRetryPermanent checks non-transient errors are not retried.
func TestFaultRetryPermanent(t *testing.T) {
	boom := errors.New("permanent")
	var calls atomic.Int64
	cells := []Cell{{
		Label:    "permanent",
		Geometry: cache.DM(64, 4),
		Stream: func() ([]trace.Ref, error) {
			calls.Add(1)
			return nil, boom
		},
		Policy: dmPolicy,
	}}
	results, err := Run(context.Background(), cells, Options{
		Retry: Retry{Attempts: 5, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !errors.Is(r.Err, boom) || r.Attempts != 1 || calls.Load() != 1 {
		t.Errorf("permanent error retried: attempts=%d calls=%d err=%v", r.Attempts, calls.Load(), r.Err)
	}
}

// TestFaultCellTimeout checks a cell that outruns CellTimeout yields
// ErrCellTimeout at a batch boundary instead of hanging the sweep, while
// a fast sibling completes.
func TestFaultCellTimeout(t *testing.T) {
	geom := cache.DM(64, 4)
	slowRefs := seqRefs(0, driveChunk+1) // at least one inter-batch check
	cells := []Cell{
		{Label: "runaway", Geometry: geom,
			Stream: func() ([]trace.Ref, error) {
				//dynexcheck:allow ctx-sleep test fixture must burn real wall time past the cell deadline
				time.Sleep(20 * time.Millisecond) // burn past the deadline
				return slowRefs, nil
			},
			Policy: dmPolicy},
		{Label: "fast", Geometry: geom,
			Stream: func() ([]trace.Ref, error) { return seqRefs(0, 16), nil },
			Policy: dmPolicy},
	}
	results, err := Run(context.Background(), cells, Options{CellTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrCellTimeout) {
		t.Errorf("runaway cell err = %v, want ErrCellTimeout", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("fast cell err = %v", results[1].Err)
	}
}

// TestFaultTimeoutNotRetried checks the default classifier does not retry
// timeouts (a runaway cell would just time out again).
func TestFaultTimeoutNotRetried(t *testing.T) {
	cells := []Cell{{
		Label:    "runaway",
		Geometry: cache.DM(64, 4),
		Stream: func() ([]trace.Ref, error) {
			//dynexcheck:allow ctx-sleep test fixture must burn real wall time past the cell deadline
			time.Sleep(10 * time.Millisecond)
			return nil, nil
		},
		Policy: dmPolicy,
	}}
	results, err := Run(context.Background(), cells, Options{
		CellTimeout: time.Millisecond,
		Retry:       Retry{Attempts: 5, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !errors.Is(r.Err, ErrCellTimeout) || r.Attempts != 1 {
		t.Errorf("timeout retried: attempts=%d err=%v", r.Attempts, r.Err)
	}
}

// TestFaultBackoffCancel checks a cancellation during backoff ends the
// retry loop promptly instead of sleeping it out.
func TestFaultBackoffCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cells := []Cell{{
		Label:    "flaky",
		Geometry: cache.DM(64, 4),
		Stream: func() ([]trace.Ref, error) {
			cancel() // fail, then cancel so the backoff sleep is interrupted
			return nil, &transientErr{n: 1}
		},
		Policy: dmPolicy,
	}}
	start := time.Now()
	results, err := Run(ctx, cells, Options{
		Retry: Retry{Attempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored cancellation (took %v)", elapsed)
	}
	if r := results[0]; r.Err == nil || r.Attempts != 1 {
		t.Errorf("cell = %+v, want 1 failed attempt", r)
	}
}

// TestFaultOnResult checks OnResult sees every executed cell exactly once,
// with the index matching the result, before Run returns.
func TestFaultOnResult(t *testing.T) {
	const n = 16
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Label: fmt.Sprintf("cell-%d", i), Geometry: cache.DM(64, 4), Policy: dmPolicy}
	}
	seen := make([]int, n)
	results, err := Run(context.Background(), cells, Options{
		Workers: 4,
		OnResult: func(i int, r Result) {
			seen[i]++ // serialized by the engine
			if want := fmt.Sprintf("cell-%d", i); r.Label != want {
				t.Errorf("OnResult(%d) label %q, want %q", i, r.Label, want)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i] != 1 {
			t.Errorf("OnResult called %d times for cell %d", seen[i], i)
		}
	}
	if len(results) != n {
		t.Fatalf("len(results) = %d", len(results))
	}
}

// TestCancelMidSweepRace is the cancellation-race invariant under -race:
// cancelling mid-sweep (including mid-cell, between drive batches) leaves
// every Result either complete or carrying ctx's error — never a
// zero-value Stats with a nil Err.
func TestCancelMidSweepRace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 48
	refs := seqRefs(0, 3*driveChunk+7) // several batch boundaries per cell
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{
			Label:    fmt.Sprintf("cell-%02d", i),
			Geometry: cache.DM(256, 4),
			Stream:   func() ([]trace.Ref, error) { return refs, nil },
			Policy:   dmPolicy,
		}
	}
	go func() {
		//dynexcheck:allow ctx-sleep test fixture delays the cancel until workers are mid-sweep
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	results, err := Run(ctx, cells, Options{Workers: 4})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v", err)
	}
	var complete, interrupted int
	for i, r := range results {
		switch {
		case r.Err == nil:
			complete++
			if r.Stats.Accesses != uint64(len(refs)) {
				t.Errorf("results[%d]: nil Err but partial stats %+v", i, r.Stats)
			}
		case errors.Is(r.Err, context.Canceled):
			interrupted++
			if r.Stats != (cache.Stats{}) {
				t.Errorf("results[%d]: cancelled cell has stats %+v", i, r.Stats)
			}
		default:
			t.Errorf("results[%d]: unexpected error %v", i, r.Err)
		}
	}
	t.Logf("complete=%d interrupted/skipped=%d", complete, interrupted)
}
