package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// runExperiments drives the command in-process and returns its stdout,
// stderr and error.
func runExperiments(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// readReport decodes a RunReport file.
func readReport(t *testing.T, path string) telemetry.RunReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r telemetry.RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// readTrace decodes a -trace-events log.
func readTrace(t *testing.T, path string) []telemetry.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// elapsedNote matches a text header's elapsed time, "  (0.1s)".
var elapsedNote = regexp.MustCompile(`(?m)^(== .*)  \([0-9.]+s\)$`)

// TestExperimentsResume runs two experiments with -checkpoint, -report
// and -trace-events, then reruns them over the same journal, in both
// output modes. The rerun replays every experiment from the journal:
// the same output (JSON byte for byte; text under "(checkpointed)"
// headers), and a report with two checkpoint hits and no cell run.
func TestExperimentsResume(t *testing.T) {
	for _, mode := range []string{"json", "text"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-run", "sec3,fig03", "-refs", "5000",
				"-checkpoint", filepath.Join(dir, "ck.jsonl")}
			if mode == "json" {
				args = append(args, "-json")
			}
			pass := func(n string) (string, telemetry.RunReport, []telemetry.Event) {
				report, trace := filepath.Join(dir, n+".json"), filepath.Join(dir, n+".jsonl")
				stdout, stderr, err := runExperiments(t, append(args, "-report", report, "-trace-events", trace)...)
				if err != nil {
					t.Fatalf("%s run: %v\n%s", n, err, stderr)
				}
				return stdout, readReport(t, report), readTrace(t, trace)
			}
			first, rep1, events := pass("first")
			second, rep2, _ := pass("second")

			if mode == "json" {
				if first != second {
					t.Errorf("resumed stdout differs:\nfirst:\n%s\nsecond:\n%s", first, second)
				}
				if n := strings.Count(first, "\n"); n != 2 {
					t.Errorf("first run printed %d JSON lines, want 2", n)
				}
			} else {
				if n := len(elapsedNote.FindAllString(first, -1)); n != 2 {
					t.Errorf("first run printed %d timed headers, want 2:\n%s", n, first)
				}
				if want := elapsedNote.ReplaceAllString(first, "$1  (checkpointed)"); second != want {
					t.Errorf("resumed text differs from the first run under checkpointed headers:\ngot:\n%s\nwant:\n%s", second, want)
				}
			}

			if rep1.Checkpoint.Writes != 2 || rep1.Cells.Finished == 0 || rep1.Cells.Failed != 0 {
				t.Errorf("first report: checkpoint %+v, cells %+v; want 2 writes and no failed cell",
					rep1.Checkpoint, rep1.Cells)
			}
			if rep2.Checkpoint.Hits != 2 || rep2.Cells.Finished != 0 {
				t.Errorf("resumed report: checkpoint %+v, cells %+v; want 2 hits and no finished cell",
					rep2.Checkpoint, rep2.Cells)
			}

			if events[0].T != telemetry.EventRunStart || events[len(events)-1].T != telemetry.EventRunSummary {
				t.Errorf("trace runs %s .. %s, want %s .. %s", events[0].T, events[len(events)-1].T,
					telemetry.EventRunStart, telemetry.EventRunSummary)
			}
			starts := 0
			for _, ev := range events {
				if ev.T == "experiment_start" {
					starts++
				}
			}
			if starts != 2 {
				t.Errorf("trace has %d experiment_start events, want 2", starts)
			}
		})
	}
}

// TestExperimentsUsage pins the exit paths: an unknown -run id or flag
// is a usage error (status 2), -h prints the usage and succeeds.
func TestExperimentsUsage(t *testing.T) {
	_, stderr, err := runExperiments(t, "-run", "fig03,nope")
	if !errors.Is(err, errUsage) {
		t.Errorf("unknown -run id: err = %v, want the usage error", err)
	}
	if !strings.Contains(stderr, `unknown experiment "nope"`) {
		t.Errorf("unknown -run id: stderr = %q", stderr)
	}
	if _, _, err := runExperiments(t, "-multisim"); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: err = %v, want the usage error", err)
	}
	if _, stderr, err := runExperiments(t, "-h"); err != nil || !strings.Contains(stderr, "-checkpoint") {
		t.Errorf("-h: err = %v, stderr = %q; want the usage and no error", err, stderr)
	}
}
