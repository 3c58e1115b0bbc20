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

// seqRefs returns n sequential one-byte references starting at base.
func seqRefs(base uint64, n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Addr: base + uint64(i)}
	}
	return refs
}

func dmPolicy(g cache.Geometry) (cache.Simulator, error) {
	return cache.NewDirectMapped(g)
}

// TestRunStats checks that Policy and Direct cells both produce the
// expected simulation outcome.
func TestRunStats(t *testing.T) {
	geom := cache.DM(64, 4)
	refs := seqRefs(0, 128)
	want := func() cache.Stats {
		c := cache.MustDirectMapped(geom)
		cache.RunRefs(c, refs)
		return c.Stats()
	}()
	cells := []Cell{
		{
			Label:    "policy",
			Geometry: geom,
			Stream:   func() ([]trace.Ref, error) { return refs, nil },
			Policy:   dmPolicy,
		},
		{
			Label:    "direct",
			Geometry: geom,
			Stream:   func() ([]trace.Ref, error) { return refs, nil },
			Direct: func(refs []trace.Ref, g cache.Geometry) (cache.Stats, error) {
				c := cache.MustDirectMapped(g)
				cache.RunRefs(c, refs)
				return c.Stats(), nil
			},
		},
	}
	results, err := Run(context.Background(), cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
		if r.Stats != want {
			t.Errorf("%s: stats %+v, want %+v", r.Label, r.Stats, want)
		}
		if r.Wall < 0 {
			t.Errorf("%s: negative wall time", r.Label)
		}
	}
}

// TestRunDeterministicOrder runs many cells with deliberately skewed
// per-cell latencies and checks the result table is in input order.
func TestRunDeterministicOrder(t *testing.T) {
	const n = 64
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Label:    fmt.Sprintf("cell-%03d", i),
			Geometry: cache.DM(64, 4),
			Stream: func() ([]trace.Ref, error) {
				// Early cells sleep longest, so completion order is
				// roughly the reverse of submission order.
				//dynexcheck:allow ctx-sleep test fixture burns real time to scramble completion order; nothing to cancel
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return seqRefs(uint64(i), 16), nil
			},
			Policy: dmPolicy,
		}
	}
	results, err := Run(context.Background(), cells, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if want := fmt.Sprintf("cell-%03d", i); r.Label != want {
			t.Fatalf("results[%d].Label = %q, want %q", i, r.Label, want)
		}
		if r.Err != nil {
			t.Errorf("results[%d]: %v", i, r.Err)
		}
	}
}

// TestRunBoundsWorkers checks that no more than Options.Workers cells are
// ever in flight.
func TestRunBoundsWorkers(t *testing.T) {
	const workers = 3
	var inFlight, maxInFlight atomic.Int64
	cells := make([]Cell, 32)
	for i := range cells {
		cells[i] = Cell{
			Geometry: cache.DM(64, 4),
			Stream: func() ([]trace.Ref, error) {
				cur := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
						break
					}
				}
				//dynexcheck:allow ctx-sleep test fixture holds the worker briefly to observe the in-flight bound
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return nil, nil
			},
			Policy: dmPolicy,
		}
	}
	if _, err := Run(context.Background(), cells, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if m := maxInFlight.Load(); m > workers {
		t.Errorf("observed %d concurrent cells, worker bound is %d", m, workers)
	}
}

// TestRunCancellation cancels mid-sweep and checks that already-run cells
// have results, skipped cells carry the context error, and Run reports
// the cancellation.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 10
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Label:    fmt.Sprintf("cell-%d", i),
			Geometry: cache.DM(64, 4),
			Stream:   func() ([]trace.Ref, error) { return seqRefs(uint64(i), 8), nil },
			Policy:   dmPolicy,
		}
	}
	// One worker processes cells in order; cancel after the third.
	done := 0
	results, err := Run(ctx, cells, Options{
		Workers: 1,
		OnResult: func(int, Result) {
			if done++; done == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	var ran, skipped int
	for i, r := range results {
		if r.Label != fmt.Sprintf("cell-%d", i) {
			t.Errorf("results[%d] out of order: %q", i, r.Label)
		}
		switch {
		case r.Err == nil:
			ran++
			if r.Stats.Accesses == 0 {
				t.Errorf("results[%d]: completed cell has empty stats", i)
			}
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("results[%d]: unexpected error %v", i, r.Err)
		}
	}
	if ran != 3 || skipped != n-3 {
		t.Errorf("ran %d skipped %d, want 3 and %d", ran, skipped, n-3)
	}
}

// TestRunCellErrors checks stream and constructor failures are isolated
// to their cell.
func TestRunCellErrors(t *testing.T) {
	boom := errors.New("boom")
	cells := []Cell{
		{Label: "bad-stream", Geometry: cache.DM(64, 4),
			Stream: func() ([]trace.Ref, error) { return nil, boom },
			Policy: dmPolicy},
		{Label: "bad-policy", Geometry: cache.DM(64, 4),
			Policy: func(cache.Geometry) (cache.Simulator, error) { return nil, boom }},
		{Label: "no-policy", Geometry: cache.DM(64, 4)},
		{Label: "ok", Geometry: cache.DM(64, 4),
			Stream: func() ([]trace.Ref, error) { return seqRefs(0, 4), nil },
			Policy: dmPolicy},
	}
	results, err := Run(context.Background(), cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, boom) || !errors.Is(results[1].Err, boom) {
		t.Errorf("cell errors not propagated: %v, %v", results[0].Err, results[1].Err)
	}
	if !errors.Is(results[2].Err, errNoPolicy) {
		t.Errorf("no-policy cell error = %v", results[2].Err)
	}
	if results[3].Err != nil || results[3].Stats.Accesses != 4 {
		t.Errorf("ok cell = %+v", results[3])
	}
}

// TestRunEmpty checks the degenerate inputs.
func TestRunEmpty(t *testing.T) {
	results, err := Run(context.Background(), nil, Options{})
	if err != nil || len(results) != 0 {
		t.Errorf("Run(nil) = %v, %v", results, err)
	}
	if err := ForEach(context.Background(), 0, 4, func(int) { t.Error("called") }); err != nil {
		t.Errorf("ForEach(0) = %v", err)
	}
}

// TestForEach checks every index is visited exactly once under a bounded
// pool, and that cancellation skips not-yet-started indices.
func TestForEach(t *testing.T) {
	const n = 100
	var visited [n]atomic.Int64
	if err := ForEach(context.Background(), n, 7, func(i int) {
		visited[i].Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range visited {
		if v := visited[i].Load(); v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, n, 1, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach after cancel = %v", err)
	}
	if got := ran.Load(); got != 5 {
		t.Errorf("ran %d iterations after cancel at 5", got)
	}
}

// TestConcurrentSweep is the race-detector workout: a realistic sweep
// (sizes × policies over a shared lazily-materialized stream) where every
// cell contends on the same sync.Once stream closure.
func TestConcurrentSweep(t *testing.T) {
	var (
		once sync.Once
		refs []trace.Ref
		gens atomic.Int64
	)
	stream := func() ([]trace.Ref, error) {
		once.Do(func() {
			gens.Add(1)
			refs = seqRefs(0, 4096)
		})
		return refs, nil
	}
	var cells []Cell
	for _, size := range []uint64{64, 128, 256, 512} {
		geom := cache.DM(size, 4)
		cells = append(cells,
			Cell{Label: fmt.Sprintf("dm/%d", size), Geometry: geom, Stream: stream, Policy: dmPolicy},
			Cell{Label: fmt.Sprintf("direct/%d", size), Geometry: geom, Stream: stream,
				Direct: func(refs []trace.Ref, g cache.Geometry) (cache.Stats, error) {
					c := cache.MustDirectMapped(g)
					cache.RunRefs(c, refs)
					return c.Stats(), nil
				}},
		)
	}
	results, err := Run(context.Background(), cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := gens.Load(); g != 1 {
		t.Errorf("stream generated %d times, want 1", g)
	}
	// Each size's dm and direct cells simulate the same cache: pairwise
	// identical stats, independent of scheduling.
	for i := 0; i < len(results); i += 2 {
		if results[i].Stats != results[i+1].Stats {
			t.Errorf("%s and %s disagree: %+v vs %+v",
				results[i].Label, results[i+1].Label, results[i].Stats, results[i+1].Stats)
		}
	}
}
