package faultinject

// The engine-level fault-injection suite: full sweeps driven through
// injected faults, asserting the resilient runtime's invariants —
// isolation (one faulty cell never poisons the pool), retry (transient
// trace-file faults clear within the attempt budget), and resume
// (a journal written mid-crash reproduces the uninterrupted result table
// exactly). `make faults` runs this suite with the fixed default seed and
// once more with a randomized -faultseed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/trace"
)

// traceBytes encodes n conflict-heavy references as a dynex trace file.
func traceBytes(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(64)) * 4 // a small hot set with conflicts
		if i%7 == 0 {
			addr += 1 << 12
		}
		if err := w.Write(trace.Ref{Addr: addr, Kind: trace.Instr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fileStream materializes a trace file through a fault-injecting reader.
// Each call builds a fresh reader over the same schedule — exactly what
// an engine retry does.
func fileStream(data []byte, sched Schedule) func() ([]trace.Ref, error) {
	return func() ([]trace.Ref, error) {
		fr, err := trace.NewFileReader(NewReader(bytes.NewReader(data), sched))
		if err != nil {
			return nil, err
		}
		return trace.Collect(fr, 0)
	}
}

func dmPolicy(g cache.Geometry) (cache.Simulator, error) {
	return cache.NewDirectMapped(g)
}

// TestFaultSuiteTraceRetry checks the headline retry invariant: a trace
// file whose reads fail transiently (EIO-style, twice) still produces the
// exact clean-run stats once the engine retries the cell.
func TestFaultSuiteTraceRetry(t *testing.T) {
	data := traceBytes(t, 4096)
	geom := cache.DM(256, 4)

	clean, err := fileStream(data, Schedule{})()
	if err != nil {
		t.Fatal(err)
	}
	want := func() cache.Stats {
		c := cache.MustDirectMapped(geom)
		cache.RunRefs(c, clean)
		return c.Stats()
	}()

	budget := NewBudget(2)
	cells := []engine.Cell{{
		Label:    "flaky-trace",
		Geometry: geom,
		Stream:   fileStream(data, Schedule{Seed: *faultSeed, FailAt: 512, Faults: budget}),
		Policy:   dmPolicy,
	}}
	results, err := engine.Run(context.Background(), cells, engine.Options{
		Retry: engine.Retry{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatalf("cell failed despite retry budget: %v (attempts=%d)", r.Err, r.Attempts)
	}
	if r.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (two injected faults)", r.Attempts)
	}
	if r.Stats != want {
		t.Errorf("retried stats %+v != clean stats %+v", r.Stats, want)
	}
	if budget.Remaining() != 0 {
		t.Errorf("budget not drained: %d left", budget.Remaining())
	}
}

// TestFaultSuiteIsolation drives a mixed sweep — panicking simulators,
// permanently faulted streams, corrupt traces, and healthy cells — and
// checks every failure stays in its own Result.
func TestFaultSuiteIsolation(t *testing.T) {
	data := traceBytes(t, 4096)
	geom := cache.DM(256, 4)
	healthy := fileStream(data, Schedule{})

	clean, err := healthy()
	if err != nil {
		t.Fatal(err)
	}

	var cells []engine.Cell
	// Healthy cells bracket the faulty ones so scheduling mixes them.
	for i := 0; i < 4; i++ {
		cells = append(cells, engine.Cell{
			Label: fmt.Sprintf("healthy-%d", i), Geometry: geom, Stream: healthy, Policy: dmPolicy,
		})
	}
	cells = append(cells,
		engine.Cell{Label: "panicking-sim", Geometry: geom, Stream: healthy,
			Policy: func(g cache.Geometry) (cache.Simulator, error) {
				return NewPanicSim(cache.MustDirectMapped(g), 100), nil
			}},
		engine.Cell{Label: "permanent-stream", Geometry: geom,
			Stream: func() ([]trace.Ref, error) { return nil, &Error{Op: "stream", Permanent: true} }},
		engine.Cell{Label: "truncated-trace", Geometry: geom,
			// Cut mid-file: either a silently shorter stream or a
			// truncated varint; both must stay inside this cell.
			Stream: fileStream(data, Schedule{Seed: *faultSeed, TruncateAt: int64(len(data)) / 2}),
			Policy: dmPolicy},
	)
	// The permanent-stream cell needs a policy to be well-formed.
	cells[5].Policy = dmPolicy

	results, err := engine.Run(context.Background(), cells, engine.Options{
		Workers: 3,
		Retry:   engine.Retry{Attempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[:4] {
		if r.Err != nil {
			t.Errorf("%s: poisoned by faulty neighbor: %v", r.Label, r.Err)
		}
		if r.Stats.Accesses != uint64(len(clean)) {
			t.Errorf("%s: accesses = %d, want %d", r.Label, r.Stats.Accesses, len(clean))
		}
	}
	var pe *engine.CellPanicError
	if !errors.As(results[4].Err, &pe) || !strings.Contains(pe.Error(), "injected panic") {
		t.Errorf("panicking-sim err = %v, want CellPanicError from the injected panic", results[4].Err)
	}
	if r := results[5]; !IsInjected(r.Err) || r.Attempts != 1 {
		t.Errorf("permanent-stream: err=%v attempts=%d, want unretried injected fault", r.Err, r.Attempts)
	}
	if r := results[6]; r.Err == nil {
		// The cut landed on a record boundary: a silently shorter stream.
		if r.Stats.Accesses == 0 || r.Stats.Accesses >= uint64(len(clean)) {
			t.Errorf("truncated-trace: accesses = %d, want a strict prefix of %d", r.Stats.Accesses, len(clean))
		}
	} else if !strings.Contains(r.Err.Error(), "at offset") {
		t.Errorf("truncated-trace err = %v, want record/offset annotation", r.Err)
	}
}

// TestFaultSuiteResume is the checkpoint invariant at engine level: a
// sweep "crashes" after journaling a prefix of its cells; the resumed run
// re-simulates only the missing cells and the merged table is identical
// to an uninterrupted run's.
func TestFaultSuiteResume(t *testing.T) {
	data := traceBytes(t, 4096)
	stream := fileStream(data, Schedule{})

	var cells []engine.Cell
	var fps []string
	for _, size := range []uint64{128, 256, 512, 1024} {
		for _, line := range []uint64{4, 16} {
			geom := cache.DM(size, line)
			cells = append(cells, engine.Cell{
				Label:    fmt.Sprintf("t/%d/%d/dm", size, line),
				Geometry: geom, Stream: stream, Policy: dmPolicy,
			})
			fps = append(fps, checkpoint.Fingerprint("faultsuite/v1", fmt.Sprint(size), fmt.Sprint(line), "dm"))
		}
	}

	// The uninterrupted run: ground truth.
	want, err := engine.Run(context.Background(), cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// First run journals results as cells complete, then "crashes" — the
	// context is cancelled after a few completions, exactly as SIGINT or
	// a fault bail would.
	path := t.TempDir() + "/resume.jsonl"
	j, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, runErr := engine.Run(ctx, cells, engine.Options{
		Workers: 1,
		OnResult: func(i int, r engine.Result) {
			if r.Err != nil {
				return
			}
			if err := j.Append(checkpoint.Record{Fingerprint: fps[i], Label: r.Label, Stats: r.Stats, Attempts: r.Attempts}); err != nil {
				t.Error(err)
			}
			if j.Len() == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("crash run err = %v, want context.Canceled", runErr)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The resumed run: load the journal, skip what it holds, simulate the
	// rest, and merge in cell order.
	j2, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	journaled := j2.Len()
	if journaled == 0 || journaled >= len(cells) {
		t.Fatalf("journal holds %d of %d cells; the crash should land mid-sweep", journaled, len(cells))
	}
	merged := make([]engine.Result, len(cells))
	var pendIdx []int
	var pendCells []engine.Cell
	for i := range cells {
		if rec, ok := j2.Lookup(fps[i]); ok {
			merged[i] = engine.Result{Label: rec.Label, Stats: rec.Stats, Attempts: rec.Attempts}
			continue
		}
		pendIdx = append(pendIdx, i)
		pendCells = append(pendCells, cells[i])
	}
	if len(pendCells) != len(cells)-journaled {
		t.Fatalf("resume would re-simulate %d cells, want %d", len(pendCells), len(cells)-journaled)
	}
	fresh, err := engine.Run(context.Background(), pendCells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pi, i := range pendIdx {
		merged[i] = fresh[pi]
	}

	for i := range want {
		if merged[i].Err != nil || merged[i].Label != want[i].Label || merged[i].Stats != want[i].Stats {
			t.Errorf("cell %d (%s): resumed %+v != uninterrupted %+v",
				i, want[i].Label, merged[i], want[i])
		}
	}
}

// TestFaultSuiteChaos throws a randomized schedule (from -faultseed) at a
// whole sweep and asserts the structural invariants that must hold for
// ANY fault pattern: the pool finishes, every result is either a complete
// simulation or an error, and healthy control cells are never affected.
func TestFaultSuiteChaos(t *testing.T) {
	t.Logf("chaos schedule seed = %d (rerun with -faultseed=%d)", *faultSeed, *faultSeed)
	rng := rand.New(rand.NewSource(*faultSeed))
	data := traceBytes(t, 8192)
	geom := cache.DM(512, 4)

	clean, err := fileStream(data, Schedule{})()
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	cells := make([]engine.Cell, n)
	control := map[int]bool{}
	for i := range cells {
		sched := Schedule{Seed: rng.Int63()}
		switch rng.Intn(5) {
		case 0:
			sched.TruncateAt = 8 + rng.Int63n(int64(len(data)))
		case 1:
			sched.FlipBitAt = 8 + rng.Int63n(int64(len(data))-8)
		case 2:
			sched.ShortReads = true
		case 3:
			sched.FailAt = 8 + rng.Int63n(int64(len(data)))
			sched.Faults = NewBudget(rng.Intn(3))
		default:
			control[i] = true // no faults
		}
		cells[i] = engine.Cell{
			Label:    fmt.Sprintf("chaos-%02d", i),
			Geometry: geom,
			Stream:   fileStream(data, sched),
			Policy:   dmPolicy,
		}
	}
	results, err := engine.Run(context.Background(), cells, engine.Options{
		Workers:     4,
		CellTimeout: 30 * time.Second,
		Retry:       engine.Retry{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		switch {
		case control[i]:
			if r.Err != nil || r.Stats.Accesses != uint64(len(clean)) {
				t.Errorf("control cell %s corrupted: %+v", r.Label, r)
			}
		case r.Err == nil:
			// Faulted but survived (fault cleared, cut on a boundary, or a
			// flip that still decodes): stats must describe a real run.
			if r.Stats.Accesses == 0 || r.Stats.Accesses != r.Stats.Hits+r.Stats.Misses {
				t.Errorf("%s: inconsistent stats %+v", r.Label, r.Stats)
			}
		default:
			if r.Stats != (cache.Stats{}) {
				t.Errorf("%s: failed cell carries stats %+v", r.Label, r.Stats)
			}
		}
	}
}

// TestPanicSimBatchParity checks the fault wrappers stay transparent to
// the batch fast path: a PanicSim over a batch-capable simulator still
// panics at exactly the scheduled access, the inner simulator sees
// exactly the pre-panic prefix, and an unfired schedule leaves stats
// bit-identical to scalar driving.
func TestPanicSimBatchParity(t *testing.T) {
	data := traceBytes(t, 4096)
	refs, err := fileStream(data, Schedule{})()
	if err != nil {
		t.Fatal(err)
	}
	geom := cache.DM(256, 4)

	// Ground truth: the stats after exactly at-1 scalar accesses.
	const at = 1000
	prefix := cache.MustDirectMapped(geom)
	for _, r := range refs[:at-1] {
		prefix.Access(r.Addr)
	}

	inner := cache.MustDirectMapped(geom)
	ps := NewPanicSim(inner, at)
	if _, ok := cache.Simulator(ps).(cache.BatchSimulator); !ok {
		t.Fatal("PanicSim does not implement cache.BatchSimulator")
	}
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, fmt.Sprintf("at access %d", at)) {
				t.Errorf("batch drive panicked with %q, want access %d", msg, at)
			}
		}()
		cache.RunRefs(ps, refs) // batches of cache.BatchChunk; panic lands mid-batch
		t.Error("batch drive did not panic")
	}()
	if inner.Stats() != prefix.Stats() {
		t.Errorf("inner saw %+v, want the %d-access prefix %+v", inner.Stats(), at-1, prefix.Stats())
	}

	// A schedule beyond the stream never fires and the wrapper is
	// stat-transparent on the batch path.
	clean := cache.MustDirectMapped(geom)
	cache.RunRefs(clean, refs)
	survivor := cache.MustDirectMapped(geom)
	cache.RunRefs(NewPanicSim(survivor, uint64(len(refs))+1), refs)
	if survivor.Stats() != clean.Stats() {
		t.Errorf("unfired PanicSim batch stats %+v != clean %+v", survivor.Stats(), clean.Stats())
	}
}

// TestSlowSimBatchParity checks SlowSim's batch path delegates the whole
// batch (identical stats) while still implementing the fast-path
// interface, so a deadline test wrapping a batch kernel stays slow.
func TestSlowSimBatchParity(t *testing.T) {
	data := traceBytes(t, 2048)
	refs, err := fileStream(data, Schedule{})()
	if err != nil {
		t.Fatal(err)
	}
	geom := cache.DM(256, 4)
	clean := cache.MustDirectMapped(geom)
	cache.RunRefs(clean, refs)

	inner := cache.MustDirectMapped(geom)
	ss := NewSlowSim(inner, 0)
	if _, ok := cache.Simulator(ss).(cache.BatchSimulator); !ok {
		t.Fatal("SlowSim does not implement cache.BatchSimulator")
	}
	cache.RunRefs(ss, refs)
	if inner.Stats() != clean.Stats() {
		t.Errorf("SlowSim batch stats %+v != clean %+v", inner.Stats(), clean.Stats())
	}
}

// TestFaultSuiteTornRecordResume is the torn-tail invariant end to end:
// a sweep crashes mid-write of its final journal record, leaving a
// partial JSONL line. The resumed run must skip the torn tail, re-run
// only that one cell, and emit a CSV byte-identical to an uninterrupted
// sweep. Both runs take grid.Plan's Restore and Run steps, the ones
// dynex-sweep -checkpoint and dynex-serve job recovery take.
func TestFaultSuiteTornRecordResume(t *testing.T) {
	sources, err := grid.BenchSources([]string{"gcc"}, "instr", 5000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := grid.Spec{
		Sources: sources, Kind: "instr", Refs: 5000,
		Sizes: []uint64{4096, 8192}, Lines: []uint64{4}, Policies: []string{"dm", "de"},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: the uninterrupted run's CSV bytes.
	want, err := engine.Run(context.Background(), plan.Cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if failed, err := plan.WriteCSV(&wantCSV, want); err != nil || len(failed) != 0 {
		t.Fatalf("clean run: failed=%v err=%v", failed, err)
	}

	// The crashing run journals every cell through the shared restore
	// and run steps, then the crash tears the last record: everything
	// after its midpoint (newline included) is lost. Cells finish in
	// completion order, so the torn record is whichever cell was
	// journaled last, not necessarily the last cell of the plan.
	path := t.TempDir() + "/torn.jsonl"
	j, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	results, pending := plan.Restore(j, nil)
	tornIdx := -1
	if err := plan.Run(context.Background(), results, pending, grid.RunOptions{
		Journal: j,
		OnCell: func(i int, r engine.Result, appendErr error) {
			if appendErr != nil {
				t.Error(appendErr)
			}
			if r.Err == nil {
				tornIdx = i // OnCell calls are serialized
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != len(plan.Cells) {
		t.Fatalf("journal holds %d records, want %d", len(lines), len(plan.Cells))
	}
	last := lines[len(lines)-1]
	torn := len(data) - len(last)/2 - 1 // mid-record, newline gone
	if err := os.Truncate(path, int64(torn)); err != nil {
		t.Fatal(err)
	}

	// Resume: the torn record is skipped, exactly one cell re-runs.
	j2, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(plan.Cells)-1 {
		t.Fatalf("resumed journal holds %d records, want %d", j2.Len(), len(plan.Cells)-1)
	}
	merged, pendIdx := plan.Restore(j2, nil)
	if len(pendIdx) != 1 || pendIdx[0] != tornIdx {
		t.Fatalf("resume re-runs cells %v, want only the torn final record's cell %d", pendIdx, tornIdx)
	}
	if err := plan.Run(context.Background(), merged, pendIdx, grid.RunOptions{Journal: j2}); err != nil {
		t.Fatal(err)
	}
	if j2.Len() != len(plan.Cells) {
		t.Errorf("journal holds %d records after the resume, want %d", j2.Len(), len(plan.Cells))
	}
	var gotCSV bytes.Buffer
	if failed, err := plan.WriteCSV(&gotCSV, merged); err != nil || len(failed) != 0 {
		t.Fatalf("resumed run: failed=%v err=%v", failed, err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Errorf("resumed CSV differs from uninterrupted run:\n--- want\n%s--- got\n%s", wantCSV.String(), gotCSV.String())
	}
}
