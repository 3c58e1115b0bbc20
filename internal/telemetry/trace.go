package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Structured event types emitted to the JSONL trace. Custom types (via
// Collector.Annotate) are allowed; these are the ones the collector
// itself produces and SummarizeTrace understands specially.
const (
	EventRunStart         = "run_start"
	EventCellStart        = "cell_start"
	EventCellAttempt      = "cell_attempt"
	EventCellFinish       = "cell_finish"
	EventCheckpointWrite  = "checkpoint_write"
	EventCheckpointResume = "checkpoint_resume"
	EventRunSummary       = "run_summary"
)

// Event is one record of the structured trace. Timestamps are monotonic
// milliseconds since the trace was opened (AtMS), so a replayed log
// reconstructs the run's relative timeline regardless of wall-clock
// adjustments mid-run. Span/Parent carry the trace-tree identity of the
// event (see SpansOf): the run span is 1, and every cell, attempt, and
// checkpoint span links to its parent by ID.
type Event struct {
	T       string  `json:"t"`
	AtMS    float64 `json:"at_ms"`
	Span    uint64  `json:"span,omitempty"`
	Parent  uint64  `json:"parent,omitempty"`
	Cell    string  `json:"cell,omitempty"`
	Index   int     `json:"index,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Outcome string  `json:"outcome,omitempty"`
	QueueMS float64 `json:"queue_ms,omitempty"`
	WallMS  float64 `json:"wall_ms,omitempty"`
	Refs    uint64  `json:"refs,omitempty"`
	SavedMS float64 `json:"saved_ms,omitempty"`
	Err     string  `json:"err,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// traceBufSize is the event writer's batch buffer. Events are a few
// hundred bytes, so this batches ~1000 events per syscall — on a large
// sweep the per-event write() calls, not the JSON encoding, used to
// dominate -trace-events overhead.
const traceBufSize = 1 << 18

// TraceWriter appends events as JSONL with monotonic timestamps. It is
// goroutine-safe. Writes are batched through a bounded buffer; call
// Flush at drain points (or Close, which flushes) — the emitted bytes
// are identical to unbuffered writes, only the write granularity
// changes.
type TraceWriter struct {
	mu    sync.Mutex
	start time.Time
	buf   *bufio.Writer
	f     *os.File // non-nil when we own the sink
	err   error    // first write error; later writes are dropped
}

// NewTraceWriter wraps an existing sink. The caller keeps ownership of w
// (Close flushes but only closes files opened by openTrace) and must not
// write to w directly while the TraceWriter is live — events are batched
// in the writer's buffer until Flush or Close.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{start: time.Now(), buf: bufio.NewWriterSize(w, traceBufSize)}
}

// openTrace creates (truncating) the trace file at path with a buffered
// writer; Close flushes and closes it.
func openTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &TraceWriter{start: time.Now(), buf: bufio.NewWriterSize(f, traceBufSize), f: f}, nil
}

// Emit stamps and appends one event. Write errors are sticky and
// surfaced by Close — tracing must never abort a simulation mid-run.
func (t *TraceWriter) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	ev.AtMS = ms(time.Since(t.start))
	line, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.buf.Write(append(line, '\n')); err != nil {
		t.err = err
	}
}

// Flush drains the batch buffer to the underlying sink. Call it at
// drain points (end of an experiment, before handing the sink to
// another writer); Close also flushes.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
	return t.err
}

func (t *TraceWriter) flushLocked() {
	if err := t.buf.Flush(); err != nil && t.err == nil {
		t.err = err
	}
}

// Close flushes and (for openTrace writers) closes the sink, returning
// the first error the writer ran into.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
	if t.f != nil {
		if err := t.f.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.f = nil
	}
	return t.err
}

// ReadEvents parses a JSONL event log. A torn final line (the process
// died mid-write) is ignored, matching the checkpoint journal's crash
// semantics; a corrupt line anywhere else is an error.
func ReadEvents(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	var events []Event
	for lineNo := 1; len(data) > 0; lineNo++ {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail
		}
		var ev Event
		if err := json.Unmarshal(data[:nl], &ev); err != nil {
			return nil, fmt.Errorf("telemetry: event log line %d: %w", lineNo, err)
		}
		events = append(events, ev)
		data = data[nl+1:]
	}
	return events, nil
}
