package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// runSweep invokes the command seam and returns (stdout, stderr, err).
func runSweep(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := sweep(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestSweepResumeByteIdentity is the headline checkpoint invariant: a
// sweep that already journaled part of the grid (here: a subset of the
// sizes) resumes, re-simulates only the missing cells, and emits CSV
// byte-identical to an uninterrupted run.
func TestSweepResumeByteIdentity(t *testing.T) {
	base := []string{"-bench", "gcc", "-refs", "20000", "-lines", "4", "-policies", "dm,de"}
	full := append([]string{"-sizes", "4096,8192"}, base...)

	want, _, err := runSweep(t, full...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	// First run journals only the 4096 cells — a sweep killed mid-grid.
	if _, _, err := runSweep(t, append([]string{"-sizes", "4096", "-checkpoint", ckpt}, base...)...); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	got, stderr, err := runSweep(t, append(full, "-checkpoint", ckpt)...)
	if err != nil {
		t.Fatalf("resumed run: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "resuming: 2 of 4 cells journaled") {
		t.Errorf("stderr = %q, want a resume banner for 2 of 4 cells", stderr)
	}
	if got != want {
		t.Errorf("resumed CSV differs from uninterrupted run:\n--- want\n%s--- got\n%s", want, got)
	}

	// A third run finds everything journaled and re-simulates nothing.
	got2, stderr2, err := runSweep(t, append(full, "-checkpoint", ckpt)...)
	if err != nil {
		t.Fatalf("fully-journaled run: %v", err)
	}
	if !strings.Contains(stderr2, "resuming: 4 of 4 cells journaled, 0 to run") {
		t.Errorf("stderr = %q, want a fully-journaled resume banner", stderr2)
	}
	if got2 != want {
		t.Error("fully-journaled CSV differs from uninterrupted run")
	}
}

// TestSweepScalarByteIdentity pins the batch fast path at the CLI
// surface: one cell per registered policy name, swept on the batch
// kernels, is byte-identical to an in-process per-cell run of the same
// plan with cache.ScalarOnly stripping BatchAccess from every
// simulator, so it is driven one Access at a time.
func TestSweepScalarByteIdentity(t *testing.T) {
	pols := registryPolicies(t)
	batched, _, err := runSweep(t, "-bench", "gcc", "-refs", "30000", "-sizes", "4096", "-lines", "16",
		"-policies", strings.Join(pols, ","))
	if err != nil {
		t.Fatalf("batched run: %v", err)
	}
	scalar := perCellSweep(t, "gcc", 30000, []uint64{4096}, []uint64{16}, pols, "", func(c *engine.Cell) {
		if c.Policy == nil {
			return // Direct cells have no Access path to strip
		}
		inner := c.Policy
		c.Policy = func(g cache.Geometry) (cache.Simulator, error) {
			sim, err := inner(g)
			if err != nil {
				return nil, err
			}
			return cache.ScalarOnly(sim), nil
		}
	})
	if batched != scalar {
		t.Errorf("batched CSV differs from scalar per-cell run:\n--- batched\n%s--- scalar\n%s", batched, scalar)
	}
}

// TestSweepInjectRetry checks -retries clears a transient stream fault
// that sinks the sweep without it.
func TestSweepInjectRetry(t *testing.T) {
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096", "-policies", "dm,de", "-workers", "1"}

	want, _, err := runSweep(t, args...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	_, stderr, err := runSweep(t, append(args, "-inject", "stream-fail=1")...)
	if err == nil {
		t.Fatal("injected stream fault with no retries: want a non-zero exit")
	}
	if !strings.Contains(stderr, "1 of 2 cells failed") || !strings.Contains(stderr, "transient stream fault") {
		t.Errorf("stderr = %q, want a one-cell failure summary naming the fault", stderr)
	}

	got, _, err := runSweep(t, append(args, "-inject", "stream-fail=1", "-retries", "2")...)
	if err != nil {
		t.Fatalf("retries did not clear the transient fault: %v", err)
	}
	if got != want {
		t.Error("retried CSV differs from clean run")
	}
}

// TestSweepInjectPanic checks a panicking cell is reported and withheld
// while the rest of the grid still comes out.
func TestSweepInjectPanic(t *testing.T) {
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192", "-policies", "dm,de",
		"-inject", "panic=/de"}
	out, stderr, err := runSweep(t, args...)
	if err == nil || !strings.Contains(err.Error(), "2 of 4 cells failed") {
		t.Fatalf("err = %v, want a 2-of-4 failure", err)
	}
	if !strings.Contains(stderr, "panicked") {
		t.Errorf("stderr = %q, want the panic reported", stderr)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 3 { // header + two dm rows
		t.Fatalf("CSV has %d rows, want 3:\n%s", len(rows), out)
	}
	for _, row := range rows[1:] {
		if !strings.Contains(row, ",dm,") {
			t.Errorf("unexpected surviving row %q", row)
		}
	}
}

// TestSweepMaxFailures checks the early bail: the sweep stops scheduling
// once the failure budget is hit and says so.
func TestSweepMaxFailures(t *testing.T) {
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192,16384,32768",
		"-policies", "dm,de", "-workers", "1", "-inject", "panic=gcc", "-max-failures", "2"}
	_, stderr, err := runSweep(t, args...)
	if err == nil || !strings.Contains(err.Error(), "aborted after 2 cell failures") {
		t.Fatalf("err = %v, want an abort after 2 failures", err)
	}
	if !strings.Contains(stderr, "cells failed") {
		t.Errorf("stderr = %q, want a failure summary", stderr)
	}
}

// TestSweepTelemetryPassive is the observability ground rule: turning on
// -report and -trace-events changes nothing about the science — the CSV
// stays byte-identical to an uninstrumented run.
func TestSweepTelemetryPassive(t *testing.T) {
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192", "-policies", "dm,de"}

	want, _, err := runSweep(t, args...)
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}

	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	events := filepath.Join(dir, "events.jsonl")
	got, _, err := runSweep(t, append(args, "-report", report, "-trace-events", events)...)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if got != want {
		t.Errorf("CSV changed under telemetry:\n--- want\n%s--- got\n%s", want, got)
	}

	// The report is valid RunReport JSON with coherent aggregates.
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Schema != telemetry.ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, telemetry.ReportSchema)
	}
	if rep.Cells.Finished != 4 || rep.Cells.OK != 4 || rep.Cells.Failed != 0 {
		t.Errorf("cells = %+v, want 4 finished, 4 ok", rep.Cells)
	}
	if rep.Refs != 4*20000 {
		t.Errorf("refs = %d, want %d", rep.Refs, 4*20000)
	}
	if rep.RefsPerSec <= 0 {
		t.Errorf("refs_per_sec = %v, want > 0", rep.RefsPerSec)
	}
	q := rep.CellWallMS
	if q.P50 < 0 || q.P50 > q.P90 || q.P90 > q.P99 || q.P99 > q.Max {
		t.Errorf("cell wall percentiles out of order: %+v", q)
	}
	if len(rep.Slowest) == 0 {
		t.Error("report has no slowest-cells table")
	}

	// The event trace replays: -trace-summary reproduces the timeline.
	sum, _, err := runSweep(t, "-trace-summary", events)
	if err != nil {
		t.Fatalf("-trace-summary: %v", err)
	}
	for _, want := range []string{"timeline:", "cells: 4 finished (4 ok, 0 failed)", "run_summary", "cell_finish"} {
		if !strings.Contains(sum, want) {
			t.Errorf("trace summary missing %q:\n%s", want, sum)
		}
	}
}

// TestSweepReportResume checks a resumed run's report credits the
// journal: checkpoint hits for replayed cells, with nonzero saved time.
func TestSweepReportResume(t *testing.T) {
	base := []string{"-bench", "gcc", "-refs", "20000", "-lines", "4", "-policies", "dm,de"}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.jsonl")
	report := filepath.Join(dir, "report.json")

	if _, _, err := runSweep(t, append([]string{"-sizes", "4096", "-checkpoint", ckpt}, base...)...); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if _, _, err := runSweep(t, append([]string{"-sizes", "4096,8192", "-checkpoint", ckpt, "-report", report}, base...)...); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoint.Hits != 2 || rep.Checkpoint.Misses != 2 {
		t.Errorf("checkpoint = %+v, want 2 hits and 2 misses", rep.Checkpoint)
	}
	if rep.Checkpoint.SavedMS <= 0 {
		t.Errorf("saved_ms = %v, want > 0 (journaled wall time)", rep.Checkpoint.SavedMS)
	}
	if rep.Checkpoint.Writes != 2 {
		t.Errorf("writes = %d, want 2 (the freshly simulated cells)", rep.Checkpoint.Writes)
	}
}

// TestSweepProgressRate checks -progress now reports throughput and ETA,
// not just a counter.
func TestSweepProgressRate(t *testing.T) {
	_, stderr, err := runSweep(t, "-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192",
		"-policies", "dm,de", "-progress")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "4/4 cells") {
		t.Errorf("stderr = %q, want the final 4/4 progress line", stderr)
	}
	if !strings.Contains(stderr, "cells/s") {
		t.Errorf("stderr = %q, want a cells/s rate in the progress line", stderr)
	}
	if !strings.Contains(stderr, "ETA") {
		t.Errorf("stderr = %q, want an ETA in the progress line", stderr)
	}
}

// TestSweepTraceSummaryErrors checks the replay mode fails cleanly on a
// missing file.
func TestSweepTraceSummaryErrors(t *testing.T) {
	if _, _, err := runSweep(t, "-trace-summary", filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Error("missing trace file: want an error")
	}
}

// TestSweepUsage pins the flag exit paths: -h prints the usage and
// succeeds, and an unknown flag is a usage error (main exits 2) whose
// usage is printed once and nothing is simulated.
func TestSweepUsage(t *testing.T) {
	stdout, stderr, err := runSweep(t, "-h")
	if err != nil || strings.Count(stderr, "Usage of dynex-sweep") != 1 || stdout != "" {
		t.Errorf("-h: err = %v, stdout = %q, stderr = %q; want the usage once and no error", err, stdout, stderr)
	}
	stdout, stderr, err = runSweep(t, "-bench", "gcc", "-nope")
	if !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: err = %v, want the usage error", err)
	}
	if strings.Count(stderr, "Usage of dynex-sweep") != 1 || !strings.Contains(stderr, "-nope") || stdout != "" {
		t.Errorf("unknown flag: stdout = %q, stderr = %q; want the usage once", stdout, stderr)
	}
}

// TestSweepInjectParse rejects malformed -inject values.
func TestSweepInjectParse(t *testing.T) {
	for _, bad := range []string{"x", "stream-fail=", "stream-fail=zero", "panic=", "stream-fail"} {
		if _, _, err := runSweep(t, "-refs", "100", "-inject", bad); err == nil ||
			!strings.Contains(err.Error(), "bad -inject") {
			t.Errorf("-inject %q: err = %v, want a parse error", bad, err)
		}
	}
}

// seedArgs reproduces the grid that generated testdata/seed_sweep.csv
// and testdata/seed_journal.jsonl before the policy-registry refactor.
var seedArgs = []string{
	"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192", "-lines", "4,16",
	"-policies", "dm,de,de-hashed,opt,lru2,lru4,victim",
}

// TestSweepGoldenCSV pins the refactor's compatibility contract: for
// every pre-registry policy name, the CSV is byte-identical to the
// output captured from the pre-refactor command.
func TestSweepGoldenCSV(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "seed_sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runSweep(t, seedArgs...)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got != string(want) {
		t.Errorf("CSV differs from pre-refactor golden:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestSweepResumeSeedJournal checks checkpoint journals written before
// the refactor still resume: every fingerprint matches, nothing is
// re-simulated, and the CSV equals the golden.
func TestSweepResumeSeedJournal(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "seed_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "seed.jsonl")
	if err := os.WriteFile(ckpt, seed, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stderr, err := runSweep(t, append([]string{"-checkpoint", ckpt}, seedArgs...)...)
	if err != nil {
		t.Fatalf("resume: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "resuming: 28 of 28 cells journaled, 0 to run") {
		t.Errorf("stderr = %q, want every pre-refactor fingerprint to hit", stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "seed_sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Error("CSV resumed from the pre-refactor journal differs from golden")
	}
}

// TestSweepFailFastBadPolicy checks the whole -policies list is
// validated before any cell output: a trailing typo aborts with a parse
// error and an empty stdout.
func TestSweepFailFastBadPolicy(t *testing.T) {
	out, _, err := runSweep(t, "-bench", "gcc", "-refs", "20000", "-sizes", "4096",
		"-policies", "dm,de,not-a-policy")
	if err == nil || !strings.Contains(err.Error(), "bad -policies") {
		t.Fatalf("err = %v, want a bad -policies parse error", err)
	}
	if out != "" {
		t.Errorf("stdout = %q, want empty (no partial CSV)", out)
	}
}

// TestSweepListPolicies pins the registry inventory exposed to CI: one
// name per line, families before their aliases, every line parseable.
func TestSweepListPolicies(t *testing.T) {
	out, _, err := runSweep(t, "-list-policies")
	if err != nil {
		t.Fatalf("-list-policies: %v", err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	want := []string{"dm", "de", "de-hashed", "de-stream", "opt", "lru", "lru2", "lru4", "fifo", "fifo2", "victim", "stream"}
	if len(lines) != len(want) {
		t.Fatalf("got %d names %q, want %d", len(lines), lines, len(want))
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("name[%d] = %q, want %q", i, lines[i], w)
		}
	}
}

// TestSweepSpecPolicy checks an option-bearing spec runs as a sweep
// policy and its raw string is echoed in the CSV policy column.
func TestSweepSpecPolicy(t *testing.T) {
	out, _, err := runSweep(t, "-bench", "gcc", "-refs", "20000", "-sizes", "4096",
		"-policies", "de:sticky=2,store=hashed*8")
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// The option comma makes the policy field CSV-quoted.
	if !strings.Contains(out, `gcc,instr,4096,4,"de:sticky=2,store=hashed*8",`) {
		t.Errorf("CSV %q does not echo the raw spec in the policy column", out)
	}
}

// TestSweepSpanTree runs a real sweep with -trace-events and checks the
// emitted span IDs reconstruct the expected tree: one job root, one cell
// span per grid cell (each with its attempt child), and a critical path
// that descends job -> cell -> attempt. The -trace-summary view must
// render that path.
func TestSweepSpanTree(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192",
		"-policies", "dm,de", "-trace-events", events}
	if _, _, err := runSweep(t, args...); err != nil {
		t.Fatalf("sweep: %v", err)
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadEvents(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.SpansOf(evs)
	if err != nil {
		t.Fatal(err)
	}
	root, err := obs.BuildTree(spans)
	if err != nil {
		t.Fatalf("sweep events do not build a span tree: %v", err)
	}
	if root.Kind != obs.KindJob {
		t.Fatalf("root span kind %s, want %s", root.Kind, obs.KindJob)
	}
	cells := 0
	for _, c := range root.Children {
		if c.Kind != obs.KindCell {
			continue
		}
		cells++
		if len(c.Children) != 1 || c.Children[0].Kind != obs.KindAttempt {
			t.Errorf("cell %q: want exactly one attempt child, got %d", c.Name, len(c.Children))
		}
		if c.DurMS < c.Children[0].DurMS {
			t.Errorf("cell %q shorter than its attempt: %.3f < %.3f", c.Name, c.DurMS, c.Children[0].DurMS)
		}
	}
	if cells != 4 {
		t.Fatalf("tree has %d cell spans, want 4", cells)
	}
	cp := obs.CriticalPath(root)
	if len(cp) != 3 || cp[0].Kind != obs.KindJob || cp[1].Kind != obs.KindCell || cp[2].Kind != obs.KindAttempt {
		t.Fatalf("critical path kinds wrong: %+v", cp)
	}

	sum, _, err := runSweep(t, "-trace-summary", events)
	if err != nil {
		t.Fatalf("-trace-summary: %v", err)
	}
	if !strings.Contains(sum, "critical path") {
		t.Errorf("trace summary missing the critical-path section:\n%s", sum)
	}
}

// TestSweepCheckpointFingerprintsUnderObservability pins that turning
// every observability surface on changes neither the CSV bytes nor the
// checkpoint fingerprints: a journal written by an instrumented sweep
// fully satisfies an uninstrumented resume, and vice versa.
func TestSweepCheckpointFingerprintsUnderObservability(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192", "-policies", "dm,de"}

	bare, _, err := runSweep(t, base...)
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}

	ckpt := filepath.Join(dir, "sweep.jsonl")
	instrumented := append([]string{"-checkpoint", ckpt,
		"-report", filepath.Join(dir, "report.json"),
		"-trace-events", filepath.Join(dir, "events.jsonl")}, base...)
	got, _, err := runSweep(t, instrumented...)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if got != bare {
		t.Errorf("CSV changed under observability:\n--- bare\n%s--- instrumented\n%s", bare, got)
	}

	// The uninstrumented resume must find every fingerprint journaled.
	got2, stderr, err := runSweep(t, append([]string{"-checkpoint", ckpt}, base...)...)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(stderr, "resuming: 4 of 4 cells journaled, 0 to run") {
		t.Errorf("observability changed checkpoint fingerprints; stderr = %q", stderr)
	}
	if got2 != bare {
		t.Error("resumed CSV differs from bare run")
	}
}
