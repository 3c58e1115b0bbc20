package grid

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
)

// countBook counts a run's checkpoint traffic.
type countBook struct{ hits, misses, writes int }

func (b *countBook) CheckpointHit(string, time.Duration)   { b.hits++ }
func (b *countBook) CheckpointMiss()                       { b.misses++ }
func (b *countBook) CheckpointWrite(string, time.Duration) { b.writes++ }

// csvOf renders results through the plan, failing on withheld rows.
func csvOf(t *testing.T, plan Plan, results []engine.Result) string {
	t.Helper()
	var b strings.Builder
	failed, err := plan.WriteCSV(&b, results)
	if err != nil || len(failed) != 0 {
		t.Fatalf("WriteCSV: failed=%v err=%v", failed, err)
	}
	return b.String()
}

// TestRestoreAndRun drives the two steps of a journaled run: a first
// run that is cut short, a resume that restores its cells and runs only
// the rest, and a rerun that restores everything. Journal traffic is
// booked once per lookup and per append, OnCell sees plan indices, and
// the merged CSV equals a per-cell engine.Run's.
func TestRestoreAndRun(t *testing.T) {
	plan := partitionPlan(t, []uint64{2048, 4096, 8192}, []uint64{4}, []string{"dm", "opt"})
	perCell, err := engine.Run(context.Background(), plan.Cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := csvOf(t, plan, perCell)

	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first run: nothing to restore; cut short after three cells.
	var book countBook
	results, pending := plan.Restore(j, &book)
	if len(pending) != len(plan.Cells) || book.misses != len(plan.Cells) || book.hits != 0 {
		t.Fatalf("empty journal: %d pending, book %+v; want all %d pending and missed", len(pending), book, len(plan.Cells))
	}
	if failed, err := plan.WriteCSV(&strings.Builder{}, results); err != nil || len(failed) != len(plan.Cells) {
		t.Fatalf("pending cells: %d rows withheld (err %v), want all %d", len(failed), err, len(plan.Cells))
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	runErr := plan.Run(ctx, results, pending, RunOptions{
		Engine:  engine.Options{Workers: 1},
		Journal: j,
		Book:    &book,
		OnCell: func(i int, r engine.Result, appendErr error) {
			if appendErr != nil {
				t.Error(appendErr)
			}
			if r.Label != plan.Cells[i].Label {
				t.Errorf("OnCell(%d) got %q, want plan cell %q", i, r.Label, plan.Cells[i].Label)
			}
			if seen++; seen == 3 {
				cancel()
			}
		},
	})
	if runErr == nil {
		t.Fatal("cut-short run returned no error")
	}
	journaled := j.Len()
	if journaled < 3 || journaled == len(plan.Cells) || book.writes != journaled {
		t.Fatalf("cut-short run journaled %d of %d cells, booked %d writes", journaled, len(plan.Cells), book.writes)
	}

	// The resume restores exactly the journaled cells and runs the rest.
	book = countBook{}
	results, pending = plan.Restore(j, &book)
	if book.hits != journaled || book.misses != len(pending) || len(pending) != len(plan.Cells)-journaled {
		t.Fatalf("resume: %d pending, book %+v; want %d hits", len(pending), book, journaled)
	}
	if err := plan.Run(context.Background(), results, pending, RunOptions{Journal: j, Book: &book}); err != nil {
		t.Fatal(err)
	}
	if got := csvOf(t, plan, results); got != want {
		t.Errorf("resumed CSV differs from the per-cell run:\n--- got\n%s--- want\n%s", got, want)
	}
	if j.Len() != len(plan.Cells) || book.writes != len(pending) {
		t.Errorf("after the resume: journal holds %d, %d writes booked; want %d and %d", j.Len(), book.writes, len(plan.Cells), len(pending))
	}

	// A rerun restores every cell and has nothing to run.
	results, pending = plan.Restore(j, nil)
	if len(pending) != 0 {
		t.Fatalf("complete journal leaves %v pending", pending)
	}
	if got := csvOf(t, plan, results); got != want {
		t.Error("fully restored CSV differs from the per-cell run")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A failed append reaches OnCell; the cell still counts as done
	// and no write is booked. Skip is asked about plan indices.
	book = countBook{}
	results, pending = plan.Restore(nil, &book)
	if len(pending) != len(plan.Cells) || book != (countBook{}) {
		t.Fatalf("nil journal: %d pending, book %+v", len(pending), book)
	}
	failedAppends := 0
	asked := map[int]bool{}
	if err := plan.Run(context.Background(), results, pending, RunOptions{
		Journal: j, // closed: every append fails
		Book:    &book,
		Skip:    func(i int) bool { asked[i] = true; return strings.HasPrefix(plan.Cells[i].Label, "alpha/") },
		OnCell: func(_ int, _ engine.Result, appendErr error) {
			if appendErr != nil {
				failedAppends++
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(asked) != len(plan.Cells) {
		t.Errorf("Skip saw %d plan cells, want all %d", len(asked), len(plan.Cells))
	}
	if failedAppends != len(plan.Cells) || book.writes != 0 {
		t.Errorf("closed journal: %d failed appends, %d writes booked; want %d and 0", failedAppends, book.writes, len(plan.Cells))
	}
	if got := csvOf(t, plan, results); got != want {
		t.Error("CSV of the run with failing appends differs from the per-cell run")
	}
}
