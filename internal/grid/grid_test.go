package grid

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// TestFingerprintSchemePinned pins the "dynex-sweep/v1" fingerprint
// composition against a value from an actual pre-grid journal
// (cmd/dynex-sweep/testdata/seed_journal.jsonl). If this fails, old
// sweep checkpoints and serve job journals stop resuming.
func TestFingerprintSchemePinned(t *testing.T) {
	sources, err := BenchSources([]string{"gcc"}, "instr", 20000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Spec{
		Sources: sources, Kind: "instr", Refs: 20000,
		Sizes: []uint64{4096}, Lines: []uint64{4}, Policies: []string{"dm", "de"},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantFPs := []string{
		"0e183d9b539909f13e6b15050baa306b", // gcc/4096/4/dm from seed_journal.jsonl
		"f8ae2f53c406b80acf438491194f32ca", // gcc/4096/4/de
	}
	for i, want := range wantFPs {
		if plan.FPs[i] != want {
			t.Errorf("FPs[%d] = %s, want %s (historical journal compatibility broken)", i, plan.FPs[i], want)
		}
	}
	if plan.Cells[0].Label != "gcc/4096/4/dm" {
		t.Errorf("label = %q, want gcc/4096/4/dm", plan.Cells[0].Label)
	}
}

// TestGridOrderAndCSV runs a small grid end to end and checks the CSV
// comes out in source-major grid order with the pinned header.
func TestGridOrderAndCSV(t *testing.T) {
	sources, err := BenchSources([]string{"gcc", "li"}, "instr", 5000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Spec{
		Sources: sources, Kind: "instr", Refs: 5000,
		Sizes: []uint64{4096, 8192}, Lines: []uint64{4}, Policies: []string{"dm", "de"},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(plan.Cells), 8; got != want {
		t.Fatalf("cells = %d, want %d", got, want)
	}
	results, err := engine.Run(context.Background(), plan.Cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	failed, err := plan.WriteCSV(&buf, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed cells: %v", failed)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "benchmark,kind,size,line,policy,miss_rate,misses,accesses" {
		t.Errorf("header = %q", lines[0])
	}
	wantPrefixes := []string{
		"gcc,instr,4096,4,dm,", "gcc,instr,4096,4,de,",
		"gcc,instr,8192,4,dm,", "gcc,instr,8192,4,de,",
		"li,instr,4096,4,dm,", "li,instr,4096,4,de,",
		"li,instr,8192,4,dm,", "li,instr,8192,4,de,",
	}
	if len(lines) != 1+len(wantPrefixes) {
		t.Fatalf("%d CSV lines, want %d:\n%s", len(lines), 1+len(wantPrefixes), buf.String())
	}
	for i, want := range wantPrefixes {
		if !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("row %d = %q, want prefix %q", i, lines[i+1], want)
		}
	}
}

// TestWriteCSVWithholdsFailures pins the partial-failure contract: a
// failed cell's row is withheld and returned, the rest render.
func TestWriteCSVWithholdsFailures(t *testing.T) {
	sources, err := BenchSources([]string{"gcc"}, "instr", 5000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Spec{
		Sources: sources, Kind: "instr", Refs: 5000,
		Sizes: []uint64{4096}, Lines: []uint64{4}, Policies: []string{"dm", "de"},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.Run(context.Background(), plan.Cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results[1].Err = errors.New("boom")
	var buf bytes.Buffer
	failed, err := plan.WriteCSV(&buf, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0].Label != "gcc/4096/4/de" {
		t.Fatalf("failed = %v, want the de cell", failed)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 { // header + dm row
		t.Errorf("CSV lines = %d, want 2:\n%s", got, buf.String())
	}
}

// TestBenchSourcesValidation checks unknown names, unknown kinds and
// repeated names fail before any stream synthesis.
func TestBenchSourcesValidation(t *testing.T) {
	if _, err := BenchSources([]string{"nope"}, "instr", 10); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := BenchSources([]string{"gcc"}, "bogus", 10); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := BenchSources([]string{"gcc", "li", "gcc"}, "instr", 10); err == nil ||
		!strings.Contains(err.Error(), `"gcc" listed more than once`) {
		t.Errorf("repeated benchmark: err = %v, want a repeat error", err)
	}
}

// TestSourceMaterializesOnce checks NewSource's sync.Once sharing: many
// concurrent cells see one materialization.
func TestSourceMaterializesOnce(t *testing.T) {
	calls := 0
	src := NewSource("x", func() ([]trace.Ref, error) {
		calls++
		return []trace.Ref{{Addr: 4}}, nil
	})
	cells := make([]engine.Cell, 8)
	plan, err := Spec{
		Sources: []Source{src}, Kind: "instr", Refs: 1,
		Sizes: []uint64{4096}, Lines: []uint64{4},
		Policies: []string{"dm", "de", "lru", "fifo", "victim", "stream", "de-stream", "opt"},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	copy(cells, plan.Cells)
	if _, err := engine.Run(context.Background(), plan.Cells, engine.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("source materialized %d times, want 1", calls)
	}
}
