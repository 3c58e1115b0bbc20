package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestTraceConcurrentEmitTornReader hammers one TraceWriter from N
// goroutines while a concurrent reader repeatedly parses the file
// mid-write — every read must tolerate the torn tail, and the final
// close must surface every event exactly once. Run under -race, this is
// the JSONL emission concurrency contract.
func TestTraceConcurrentEmitTornReader(t *testing.T) {
	const writers, perWriter = 8, 200
	path := filepath.Join(t.TempDir(), "events.jsonl")
	tw, err := openTrace(path)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		// The reader sees whatever prefix the batched writer has flushed,
		// possibly ending mid-line; ReadEvents must never error on it.
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				readerDone <- err
				return
			}
			if _, err := ReadEvents(bytes.NewReader(data)); err != nil {
				readerDone <- fmt.Errorf("mid-write read: %w", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tw.Emit(Event{T: EventCellFinish, Cell: fmt.Sprintf("w%d-c%d", w, i), Refs: 1})
				if i%50 == 0 {
					_ = tw.Flush() // concurrent flushes must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != writers*perWriter {
		t.Fatalf("got %d events, want %d", len(events), writers*perWriter)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if seen[ev.Cell] {
			t.Fatalf("event %q emitted twice", ev.Cell)
		}
		seen[ev.Cell] = true
	}
	// The batch buffer changes write granularity, never bytes: every
	// line is the canonical JSON encoding of the event it carries.
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		back, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, back) {
			t.Fatalf("line %d is not canonically encoded:\n%s\n%s", i+1, line, back)
		}
	}
}

// TestCollectorConcurrentSpans drives one traced, instrumented collector
// from many goroutines (the engine's worker-pool shape) and checks the
// emitted span IDs still reconstruct a valid tree.
func TestCollectorConcurrentSpans(t *testing.T) {
	const workers, cells = 4, 32
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	c := NewCollector(cells)
	c.SetTrace(tw)
	c.SetInstruments(NewInstruments(obs.NewRegistry(), []string{"dm", "de"}))
	c.Start("concurrent spans")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cells; i += workers {
				label := fmt.Sprintf("gcc/4096/4/de:cell-%d", i)
				c.CellStarted(engine.CellStart{Index: i, Label: label})
				c.CellAttempted(engine.CellAttempt{Index: i, Label: label, Attempt: 1,
					Wall: time.Millisecond, Outcome: engine.OutcomeOK})
				c.CellFinished(engine.CellFinish{Index: i, Label: label,
					Wall: time.Millisecond, Attempts: 1, Refs: 100, Outcome: engine.OutcomeOK})
			}
		}(w)
	}
	wg.Wait()
	c.Finish()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := SpansOf(events)
	if err != nil {
		t.Fatal(err)
	}
	root, err := obs.BuildTree(spans)
	if err != nil {
		t.Fatalf("concurrent emission produced an invalid span tree: %v", err)
	}
	if root.Kind != obs.KindJob || len(root.Children) != cells {
		t.Fatalf("root %s with %d children, want %s with %d", root.Kind, len(root.Children), obs.KindJob, cells)
	}
	for _, cell := range root.Children {
		if cell.Kind != obs.KindCell || len(cell.Children) != 1 || cell.Children[0].Kind != obs.KindAttempt {
			t.Fatalf("cell span %q: kind %s with %d children, want one attempt child", cell.Name, cell.Kind, len(cell.Children))
		}
	}
	if cp := obs.CriticalPath(root); len(cp) != 3 {
		t.Fatalf("critical path has %d spans, want 3 (job -> cell -> attempt)", len(cp))
	}
}

// TestSummaryWithoutRunStart summarizes a hand-made log that has cell
// events and a run_summary but no run_start: it reads and summarizes
// without error, has no run span, and so prints no critical path.
func TestSummaryWithoutRunStart(t *testing.T) {
	log := `{"t":"cell_start","at_ms":1,"span":2,"parent":1,"cell":"gcc/4096/4/dm"}
{"t":"cell_attempt","at_ms":3,"span":3,"parent":2,"cell":"gcc/4096/4/dm","attempt":1,"outcome":"ok","wall_ms":2}
{"t":"cell_finish","at_ms":3,"span":2,"parent":1,"cell":"gcc/4096/4/dm","attempt":1,"outcome":"ok","wall_ms":2,"refs":100}
{"t":"run_summary","at_ms":4,"span":1,"wall_ms":4,"refs":100}
`
	events, err := ReadEvents(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := SpansOf(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Kind == obs.KindJob {
			t.Errorf("run span %+v reconstructed without a run_start", s)
		}
	}
	sum := SummarizeTrace(events, 10)
	if !strings.Contains(sum, "cells: 1 finished (1 ok, 0 failed)") || strings.Contains(sum, "critical path") {
		t.Errorf("summary:\n%s\nwant one finished cell and no critical-path section", sum)
	}
}
