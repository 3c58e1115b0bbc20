package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/grid"
)

// normalizeJournal parses a checkpoint journal and returns its records
// with the wall-clock field zeroed and the lines sorted: everything a
// journal promises (fingerprints, labels, stats, attempts) must match
// across execution shapes; wall time and completion order may not.
func normalizeJournal(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		delete(rec, "wall_ns")
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// perCellSweep is the in-process reference for the sweep's output: it
// builds the same plan dynex-sweep builds for one benchmark's instr
// stream, runs it through engine.Run with no column units (every cell
// on its own simulator), optionally rewriting each cell first, and
// returns the CSV. With journal non-empty it also journals every cell
// the way the sweep does.
func perCellSweep(t *testing.T, bench string, refs int, sizes, lines []uint64, pols []string, journal string, rewrite func(*engine.Cell)) string {
	t.Helper()
	sources, err := grid.BenchSources([]string{bench}, "instr", refs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := grid.Spec{Sources: sources, Kind: "instr", Refs: refs,
		Sizes: sizes, Lines: lines, Policies: pols}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rewrite != nil {
		for i := range plan.Cells {
			rewrite(&plan.Cells[i])
		}
	}
	results, err := engine.Run(context.Background(), plan.Cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if failed, err := plan.WriteCSV(&buf, results); err != nil || len(failed) > 0 {
		t.Fatalf("per-cell run: %d failed cells, err %v", len(failed), err)
	}
	if journal != "" {
		j, err := checkpoint.Open(journal)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for i, r := range results {
			if err := j.Append(checkpoint.Record{Fingerprint: plan.FPs[i], Label: r.Label,
				Stats: r.Stats, Attempts: r.Attempts, WallNS: int64(r.Wall)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.String()
}

// registryPolicies is every registered policy name, from -list-policies.
func registryPolicies(t *testing.T) []string {
	t.Helper()
	out, _, err := runSweep(t, "-list-policies")
	if err != nil {
		t.Fatalf("-list-policies: %v", err)
	}
	return strings.Fields(out)
}

// TestSweepMultisimByteIdentity is the column path's acceptance check
// at the CLI surface: the full policy registry over a power-of-two size
// grid — size columns wherever grid.Plan.Partition finds them, single
// cells elsewhere — produces CSV byte-identical to an in-process
// per-cell engine.Run of the same plan, and the checkpoint journals
// record the same cells, fingerprints, and stats (order and wall time
// are the only permitted differences).
func TestSweepMultisimByteIdentity(t *testing.T) {
	pols := registryPolicies(t)
	sizes, lines := []uint64{4096, 8192, 16384, 32768}, []uint64{4, 16}
	dir := t.TempDir()
	jSweep := filepath.Join(dir, "sweep.jsonl")
	jCells := filepath.Join(dir, "cells.jsonl")

	got, _, err := runSweep(t, "-bench", "gcc", "-refs", "100000", "-sizes", "4096,8192,16384,32768",
		"-lines", "4,16", "-policies", strings.Join(pols, ","), "-checkpoint", jSweep)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	want := perCellSweep(t, "gcc", 100000, sizes, lines, pols, jCells, nil)
	if got != want {
		t.Errorf("sweep CSV differs from per-cell run:\n--- sweep\n%s--- per-cell\n%s", got, want)
	}
	if a, b := normalizeJournal(t, jSweep), normalizeJournal(t, jCells); a != b {
		t.Errorf("journals differ:\n--- sweep\n%s\n--- per-cell\n%s", a, b)
	}
}

// TestSweepMultisimFlag pins that execution shape is not a setting:
// the removed -multisim and -scalar options are unknown flags.
func TestSweepMultisimFlag(t *testing.T) {
	for _, flag := range []string{"-multisim=on", "-multisim=off", "-scalar"} {
		_, _, err := runSweep(t, "-bench", "gcc", "-refs", "1000", "-sizes", "4096,8192", flag)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

// TestSweepMultisimResumeAcrossModes checks the checkpoint journal is
// blind to execution shape: a journal written by single cells resumes
// in size columns, and one written by size columns resumes as single
// cells, both with CSV byte-identical to an uninterrupted run. The
// shape follows from the pending set: a column needs two pending sizes.
func TestSweepMultisimResumeAcrossModes(t *testing.T) {
	base := []string{"-bench", "gcc", "-refs", "20000", "-lines", "4",
		"-policies", "dm,de,lru,fifo"}
	full := append([]string{"-sizes", "4096,8192,16384"}, base...)

	want, _, err := runSweep(t, full...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	for _, c := range []struct{ name, sizes, banner string }{
		// One size: every column has one member, so the journal is
		// written cell by cell and the resumed 8192/16384 cells run
		// as columns.
		{"cells->columns", "4096", "resuming: 4 of 12 cells journaled"},
		// Two sizes: columns write the journal, and the one pending
		// size per column resumes as single cells.
		{"columns->cells", "8192,16384", "resuming: 8 of 12 cells journaled"},
	} {
		ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
		partial := append([]string{"-sizes", c.sizes, "-checkpoint", ckpt}, base...)
		if _, _, err := runSweep(t, partial...); err != nil {
			t.Fatalf("%s: partial run: %v", c.name, err)
		}
		got, stderr, err := runSweep(t, append(full, "-checkpoint", ckpt)...)
		if err != nil {
			t.Fatalf("%s: resume: %v\nstderr: %s", c.name, err, stderr)
		}
		if !strings.Contains(stderr, c.banner) {
			t.Errorf("%s: stderr = %q, want %q", c.name, stderr, c.banner)
		}
		if got != want {
			t.Errorf("%s: resumed CSV differs from uninterrupted run", c.name)
		}
	}
}

// TestSweepMultisimMidColumnKill kills members mid-column via fault
// injection: the panicking size is carved out of its columns, the
// surviving members journal, and a clean resume completes the grid
// byte-identically.
func TestSweepMultisimMidColumnKill(t *testing.T) {
	base := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192,16384",
		"-policies", "dm,de"}

	want, _, err := runSweep(t, base...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	_, stderr, err := runSweep(t, append([]string{"-checkpoint", ckpt,
		"-inject", "panic=/16384"}, base...)...)
	if err == nil || !strings.Contains(err.Error(), "2 of 6 cells failed") {
		t.Fatalf("injected run: err = %v, want a 2-of-6 failure\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "panicked") {
		t.Errorf("stderr = %q, want the injected panic reported", stderr)
	}

	got, stderr, err := runSweep(t, append([]string{"-checkpoint", ckpt}, base...)...)
	if err != nil {
		t.Fatalf("resume: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "resuming: 4 of 6 cells journaled") {
		t.Errorf("stderr = %q, want the 4 surviving column members journaled", stderr)
	}
	if got != want {
		t.Errorf("CSV after mid-column kill and resume differs from clean run:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestSweepMultisimStreamRetry checks transient stream faults reach
// column units (streams are shared per column) and -retries clears them
// without changing the CSV.
func TestSweepMultisimStreamRetry(t *testing.T) {
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192",
		"-policies", "dm,de", "-workers", "1"}

	want, _, err := runSweep(t, args...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if _, _, err := runSweep(t, append(args, "-inject", "stream-fail=1")...); err == nil {
		t.Fatal("injected stream fault with no retries: want a non-zero exit")
	}
	got, _, err := runSweep(t, append(args, "-inject", "stream-fail=1", "-retries", "2")...)
	if err != nil {
		t.Fatalf("retries did not clear the fault in columns: %v", err)
	}
	if got != want {
		t.Error("retried column CSV differs from clean run")
	}
}
