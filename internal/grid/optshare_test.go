package grid_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/opt"
	"repro/internal/spec"
)

// TestOptSharedMatchesPerCell checks the optimal cells of a plan, whose
// size columns share one next-use pass, against an unshared reference:
// every cell's Stats must equal a per-cell opt.SimulateDM call on the
// same stream. The plan runs opt in all three last-line modes over the
// suite's mixed streams at unsorted and repeated sizes from 1 to 64 KiB
// and 4, 16 and 64 B lines, on 1 and 4 workers, twice on the same plan,
// with a panic injected into one sharer of each (line 16, opt:lastline)
// column, and with a transient stream fault that a retry clears.
func TestOptSharedMatchesPerCell(t *testing.T) {
	const refs = 10_000
	var names []string
	for _, b := range spec.Suite() {
		names = append(names, b.Name)
	}
	sources, err := grid.BenchSources(names, "mixed", refs)
	if err != nil {
		t.Fatal(err)
	}
	gs := grid.Spec{
		Sources:  sources,
		Kind:     "mixed",
		Refs:     refs,
		Sizes:    []uint64{8 << 10, 1 << 10, 64 << 10, 8 << 10, 2 << 10},
		Lines:    []uint64{4, 16, 64},
		Policies: []string{"opt", "opt:lastline", "opt:nolastline"},
	}
	// want is in grid order: source-major, then size, line and policy.
	var want []cache.Stats
	for _, src := range sources {
		stream, err := src.Stream()
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range gs.Sizes {
			for _, line := range gs.Lines {
				for _, lastLine := range []bool{line > 4, true, false} {
					want = append(want, opt.SimulateDM(stream, cache.DM(size, line), lastLine))
				}
			}
		}
	}
	build := func(t *testing.T) grid.Plan {
		plan, err := gs.Build()
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	// run runs every cell of plan and checks each against want, except
	// those failed reports as expected failures, which must have failed.
	run := func(t *testing.T, plan grid.Plan, o grid.RunOptions, failed func(label string) bool) []engine.Result {
		t.Helper()
		results, pending := plan.Restore(nil, nil)
		if err := plan.Run(context.Background(), results, pending, o); err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			switch {
			case failed != nil && failed(r.Label):
				if r.Err == nil {
					t.Errorf("%s: ran clean, want its injected failure", r.Label)
				}
			case r.Err != nil:
				t.Errorf("%s: %v", r.Label, r.Err)
			case r.Stats != want[i]:
				t.Errorf("%s: shared pass %+v, per-cell SimulateDM %+v", r.Label, r.Stats, want[i])
			}
		}
		return results
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run(t, build(t), grid.RunOptions{Engine: engine.Options{Workers: workers}}, nil)
		})
	}
	t.Run("rerun", func(t *testing.T) {
		plan := build(t)
		for range 2 {
			run(t, plan, grid.RunOptions{Engine: engine.Options{Workers: 4}}, nil)
		}
	})
	t.Run("panic", func(t *testing.T) {
		plan := build(t)
		const target = "/2048/16/opt:lastline"
		d := faultinject.Directive{Panic: target}
		o := grid.RunOptions{Engine: engine.Options{Workers: 4}, Skip: d.Apply(&plan)}
		results := run(t, plan, o, func(label string) bool { return strings.HasSuffix(label, target) })
		for _, r := range results {
			var pe *engine.CellPanicError
			if strings.HasSuffix(r.Label, target) && !errors.As(r.Err, &pe) {
				t.Errorf("%s: err %v, want a CellPanicError", r.Label, r.Err)
			}
		}
	})
	t.Run("stream-fail", func(t *testing.T) {
		plan := build(t)
		faultinject.Directive{StreamFail: 1}.Apply(&plan)
		o := grid.RunOptions{Engine: engine.Options{Workers: 4,
			Retry: engine.Retry{Attempts: 2, BaseDelay: time.Millisecond}}}
		retried := 0
		for _, r := range run(t, plan, o, nil) {
			if r.Attempts > 1 {
				retried++
			}
		}
		if retried != len(sources) {
			t.Errorf("%d cells retried, want one per source (%d)", retried, len(sources))
		}
	})
}

// TestOptSharedPassesBounded runs a two-size opt grid with fifteen
// (line, policy) columns on one worker, which takes the first size of
// every column before the second, and measures the live heap after each
// cell. It must never hold more than the two passes a one-worker run
// keeps, however many columns are waiting for their second sharer, and
// once Run returns it must hold none: not even the pass of a column
// whose second sharer an injected panic replaced.
func TestOptSharedPassesBounded(t *testing.T) {
	const refs = 200_000
	const passBytes = 4 * refs
	sources, err := grid.BenchSources([]string{"gcc"}, "mixed", refs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sources[0].Stream(); err != nil {
		t.Fatal(err)
	}
	gs := grid.Spec{
		Sources:  sources,
		Kind:     "mixed",
		Refs:     refs,
		Sizes:    []uint64{4 << 10, 8 << 10},
		Lines:    []uint64{4, 8, 16, 32, 64},
		Policies: []string{"opt", "opt:lastline", "opt:nolastline"},
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, inject := range []string{"", "/8192/4/opt"} {
		t.Run("inject="+inject, func(t *testing.T) {
			plan, err := gs.Build()
			if err != nil {
				t.Fatal(err)
			}
			d := faultinject.Directive{Panic: inject}
			o := grid.RunOptions{Engine: engine.Options{Workers: 1}, Skip: d.Apply(&plan)}
			results, pending := plan.Restore(nil, nil)
			base := liveHeap()
			var peak uint64
			o.OnCell = func(int, engine.Result, error) {
				if h := liveHeap(); h > base {
					peak = max(peak, h-base)
				}
			}
			if err := plan.Run(context.Background(), results, pending, o); err != nil {
				t.Fatal(err)
			}
			t.Logf("held at most %d B between cells: %.2f passes of %d B", peak, float64(peak)/passBytes, passBytes)
			if peak > 3*passBytes {
				t.Errorf("the run held %d B between cells, %.1f passes of %d B; a one-worker run keeps at most two",
					peak, float64(peak)/passBytes, passBytes)
			}
			if peak < passBytes {
				t.Errorf("the run held %d B between cells, less than one %d B pass: no column kept its pass", peak, passBytes)
			}
			if h := liveHeap(); h > base+passBytes/2 {
				t.Errorf("%d B more live after the run than before it: a pass outlived its run", h-base)
			}
			runtime.KeepAlive(plan)
		})
	}
}
