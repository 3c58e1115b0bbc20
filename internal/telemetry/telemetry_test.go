package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestQuantilesOf(t *testing.T) {
	if q := QuantilesOf(nil); q != (Quantiles{}) {
		t.Errorf("empty input: got %+v, want zero", q)
	}
	// 1..100: nearest-rank percentiles are exact.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed: QuantilesOf must sort
	}
	q := QuantilesOf(xs)
	if q.P50 != 50 || q.P90 != 90 || q.P99 != 99 || q.Max != 100 {
		t.Errorf("got p50=%g p90=%g p99=%g max=%g, want 50/90/99/100", q.P50, q.P90, q.P99, q.Max)
	}
	if q.Mean != 50.5 {
		t.Errorf("mean = %g, want 50.5", q.Mean)
	}
	if q1 := QuantilesOf([]float64{7}); q1.P50 != 7 || q1.P99 != 7 || q1.Max != 7 {
		t.Errorf("single element: got %+v, want all 7", q1)
	}
}

// feed drives a collector through a synthetic run: nOK successful cells,
// one retried cell, one panic, plus checkpoint traffic.
func feed(c *Collector, nOK int) {
	for i := 0; i < nOK; i++ {
		label := fmt.Sprintf("cell-%d", i)
		c.CellStarted(engine.CellStart{Index: i, Label: label, QueueWait: time.Millisecond})
		c.CellAttempted(engine.CellAttempt{Index: i, Label: label, Attempt: 1,
			Wall: time.Duration(i+1) * time.Millisecond, Outcome: engine.OutcomeOK})
		c.CellFinished(engine.CellFinish{Index: i, Label: label, QueueWait: time.Millisecond,
			Wall: time.Duration(i+1) * time.Millisecond, Attempts: 1, Refs: 1000, Outcome: engine.OutcomeOK})
	}
	// One transient failure that clears on retry.
	transient := errors.New("flaky stream")
	c.CellStarted(engine.CellStart{Index: nOK, Label: "retry-cell"})
	c.CellAttempted(engine.CellAttempt{Index: nOK, Label: "retry-cell", Attempt: 1,
		Wall: time.Millisecond, Outcome: engine.OutcomeError, Err: transient})
	c.CellAttempted(engine.CellAttempt{Index: nOK, Label: "retry-cell", Attempt: 2,
		Wall: time.Millisecond, Outcome: engine.OutcomeOK})
	c.CellFinished(engine.CellFinish{Index: nOK, Label: "retry-cell",
		Wall: 2 * time.Millisecond, Attempts: 2, Refs: 1000, Outcome: engine.OutcomeOK})
	// One panic.
	c.CellStarted(engine.CellStart{Index: nOK + 1, Label: "panic-cell"})
	boom := errors.New(`engine: cell "panic-cell" panicked: boom`)
	c.CellAttempted(engine.CellAttempt{Index: nOK + 1, Label: "panic-cell", Attempt: 1,
		Wall: time.Millisecond, Outcome: engine.OutcomePanic, Err: boom})
	c.CellFinished(engine.CellFinish{Index: nOK + 1, Label: "panic-cell",
		Wall: time.Millisecond, Attempts: 1, Outcome: engine.OutcomePanic, Err: boom})
	// Checkpoint traffic.
	c.CheckpointHit("cached-cell", 50*time.Millisecond)
	c.CheckpointMiss()
	c.CheckpointWrite("cell-0", time.Millisecond)
}

func TestCollectorReport(t *testing.T) {
	c := NewCollector(6)
	feed(c, 4)
	r := c.Report()

	if r.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", r.Schema, ReportSchema)
	}
	if r.Cells.Total != 6 || r.Cells.Finished != 6 || r.Cells.OK != 5 || r.Cells.Failed != 1 || r.Cells.Panics != 1 {
		t.Errorf("cells = %+v, want total=6 finished=6 ok=5 failed=1 panics=1", r.Cells)
	}
	if r.Attempts != 7 || r.Retries != 1 {
		t.Errorf("attempts=%d retries=%d, want 7 and 1", r.Attempts, r.Retries)
	}
	if r.Refs != 5000 {
		t.Errorf("refs = %d, want 5000", r.Refs)
	}
	if r.RefsPerSec <= 0 || r.CellsPerSec <= 0 || r.WallMS <= 0 {
		t.Errorf("rates: refs/sec=%g cells/sec=%g wall=%gms, want all > 0", r.RefsPerSec, r.CellsPerSec, r.WallMS)
	}
	if r.CellWallMS.P50 <= 0 || r.CellWallMS.P99 < r.CellWallMS.P50 || r.CellWallMS.Max < r.CellWallMS.P99 {
		t.Errorf("cell wall quantiles not ordered: %+v", r.CellWallMS)
	}
	if r.Checkpoint.Hits != 1 || r.Checkpoint.Misses != 1 || r.Checkpoint.Writes != 1 || r.Checkpoint.SavedMS != 50 {
		t.Errorf("checkpoint = %+v, want hits=1 misses=1 writes=1 saved=50ms", r.Checkpoint)
	}
	if len(r.Slowest) == 0 || r.Slowest[0].Cell != "cell-3" {
		t.Errorf("slowest = %+v, want cell-3 first (4ms)", r.Slowest)
	}
	if len(r.Failures) != 1 || r.Failures[0].Outcome != engine.OutcomePanic {
		t.Errorf("failures = %+v, want the one panic", r.Failures)
	}

	// The report must round-trip through JSON (it is the -report payload).
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Refs != r.Refs || back.Cells != r.Cells || back.CellWallMS != r.CellWallMS {
		t.Error("report did not round-trip through JSON")
	}
}

func TestSnapshotAndETA(t *testing.T) {
	c := NewCollector(10)
	feed(c, 4)
	s := c.Snapshot()
	if s.CellsTotal != 10 || s.CellsDone != 6 || s.CellsFailed != 1 || s.CellsInflight != 0 {
		t.Errorf("snapshot = %+v, want total=10 done=6 failed=1 inflight=0", s)
	}
	if s.CellsPerSec <= 0 || s.RefsPerSec <= 0 {
		t.Errorf("rates = %g cells/s, %g refs/s, want > 0", s.CellsPerSec, s.RefsPerSec)
	}
	if eta := c.ETA(6, 10); eta <= 0 {
		t.Errorf("ETA(6, 10) = %v, want > 0", eta)
	}
	if eta := c.ETA(10, 10); eta != 0 {
		t.Errorf("ETA at completion = %v, want 0", eta)
	}
	if eta := c.ETA(0, 10); eta != 0 {
		t.Errorf("ETA before any completion = %v, want 0", eta)
	}
}

func TestTraceRoundTripAndSummary(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	c := NewCollector(6)
	c.SetTrace(tw)
	c.Start("telemetry-test run")
	feed(c, 4)
	c.Finish()
	if err := tw.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if events[0].T != EventRunStart || events[len(events)-1].T != EventRunSummary {
		t.Errorf("trace must start with %s and end with %s; got %s .. %s",
			EventRunStart, EventRunSummary, events[0].T, events[len(events)-1].T)
	}
	// 6 cells × (start+attempt+finish) + 1 extra retry attempt + ckpt
	// resume + ckpt write + run start + run summary.
	if want := 6*3 + 1 + 2 + 2; len(events) != want {
		t.Errorf("got %d events, want %d", len(events), want)
	}
	for i := 1; i < len(events); i++ {
		if events[i].AtMS < events[i-1].AtMS {
			t.Fatalf("timestamps not monotonic at event %d: %g < %g", i, events[i].AtMS, events[i-1].AtMS)
		}
	}

	sum := SummarizeTrace(events, 3)
	for _, want := range []string{
		"cells: 6 finished (5 ok, 1 failed), 1 retries",
		"failures: 1 panic",
		"checkpoint: 1 resumed",
		"top 3 slowest cells:",
		"cell-3",
		"timeline:",
		"run_start",
		"attempt 2: ok", // the retry is timeline-worthy
		"run_summary",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	if strings.Contains(sum, EventCellStart) {
		t.Errorf("summary timeline should drop %s events:\n%s", EventCellStart, sum)
	}
}

func TestReadEventsTornTail(t *testing.T) {
	log := `{"t":"run_start","at_ms":0}` + "\n" + `{"t":"cell_finish","at_ms":1,"cell":"a"}` + "\n" + `{"t":"cell_fin`
	events, err := ReadEvents(strings.NewReader(log))
	if err != nil {
		t.Fatalf("torn tail must be ignored, got error: %v", err)
	}
	if len(events) != 2 {
		t.Errorf("got %d events, want 2 (torn line dropped)", len(events))
	}
	if _, err := ReadEvents(strings.NewReader("not json\n")); err == nil {
		t.Error("corrupt non-tail line: want an error")
	}
}
