package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
)

// bookCell runs one observed cell through col, as a CLI run does.
func bookCell(col *Collector) {
	_ = engine.Observe(col, 0, "gcc/4096/4/dm", func() (uint64, error) { return 1000, nil })
}

// TestOpenAllSinks opens a run with every sink: the debug server serves
// the run's counters while it runs, and ending the run writes the
// report and a trace bracketed by run_start and run_summary.
func TestOpenAllSinks(t *testing.T) {
	dir := t.TempDir()
	report, trace := filepath.Join(dir, "report.json"), filepath.Join(dir, "trace.jsonl")
	var stderr bytes.Buffer
	col, finish, err := Open("dynex-test -refs 1000", 1,
		Sinks{Report: report, TraceEvents: trace, DebugAddr: "127.0.0.1:0"},
		[]string{"dm", "de"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	bookCell(col)

	addr := regexp.MustCompile(`^dynex-test: debug server on http://(\S+)/metrics `).FindStringSubmatch(stderr.String())
	if addr == nil {
		t.Fatalf("stderr = %q, want the debug server's address", stderr.String())
	}
	resp, err := http.Get("http://" + addr[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), MetricCellsCompleted) {
		t.Errorf("/metrics has no %s:\n%s", MetricCellsCompleted, metrics)
	}

	finish()
	if n := strings.Count(stderr.String(), "\n"); n != 1 {
		t.Errorf("stderr = %q, want only the debug server line", stderr.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != ReportSchema || r.Command != "dynex-test -refs 1000" || r.Cells.OK != 1 || r.Refs != 1000 {
		t.Errorf("report = %+v, want one ok cell of 1000 refs under the command line", r)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 || events[0].T != EventRunStart || events[0].Note != r.Command ||
		events[len(events)-1].T != EventRunSummary {
		t.Errorf("trace = %+v, want run_start, the cell's three events and run_summary", events)
	}
}

// TestOpenNoSinks checks a run with no sink still counts its cells but
// attaches nothing, so it writes and prints nothing.
func TestOpenNoSinks(t *testing.T) {
	var stderr bytes.Buffer
	col, finish, err := Open("dynex-test", 1, Sinks{}, nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	bookCell(col)
	finish()
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want nothing", stderr.String())
	}
	if col.trace != nil || col.inst != nil {
		t.Error("a run with no sink attached a trace or instruments")
	}
	if s := col.Snapshot(); s.CellsDone != 1 || s.Refs != 1000 {
		t.Errorf("snapshot = %+v, want the booked cell", s)
	}
}

// TestOpenFailures checks where sink failures land: a sink that cannot
// be opened fails Open, and a report that cannot be written at the end
// is printed on stderr without failing the run.
func TestOpenFailures(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	if _, _, err := Open("dynex-test", 0, Sinks{TraceEvents: filepath.Join(missing, "t.jsonl")}, nil, io.Discard); err == nil {
		t.Error("trace in a missing directory: want an error from Open")
	}
	var stderr bytes.Buffer
	_, finish, err := Open("dynex-test", 0, Sinks{Report: filepath.Join(missing, "r.json")}, nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	finish()
	if !strings.HasPrefix(stderr.String(), "dynex-test: report: ") {
		t.Errorf("stderr = %q, want the report failure", stderr.String())
	}
}
