// Package telemetry is the instrumentation layer of the simulation
// runtime: it turns the engine's execution events (internal/engine's
// Collector hook) plus checkpoint activity into
//
//   - a live Snapshot of run counters (cells done, refs/sec, ETA inputs)
//     for CLI progress meters, with the same events feeding the
//     Instruments behind GET /metrics,
//   - an optional structured JSONL event trace (cell start/attempt/
//     finish, checkpoint write/resume, run summary) with monotonic
//     timestamps, replayable by SummarizeTrace, and
//   - a machine-readable RunReport (report.go) with percentile cell
//     latencies, throughput, retry/panic/timeout counts, and checkpoint
//     resume savings.
//
// Telemetry is strictly observational: attaching a Collector changes no
// simulation result, and every output goes to its own sink (report file,
// trace file, stderr, HTTP), never to the CSV/stdout stream. The package
// uses only the standard library. DESIGN.md §8 documents the model.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// cellRecord is one finished cell as the collector remembers it.
type cellRecord struct {
	label     string
	queueWait time.Duration
	wall      time.Duration
	attempts  int
	refs      uint64
	outcome   string
	err       string
}

// Collector accumulates run telemetry. It implements engine.Collector, so
// it plugs directly into engine.Options.Collector (and engine.Observe
// books work done outside the engine through the same events); CLIs
// additionally feed it checkpoint activity (CheckpointHit/Miss/Write).
// All methods are goroutine-safe.
type Collector struct {
	mu    sync.Mutex
	start time.Time
	total int // expected cells (0 = unknown)
	trace *TraceWriter
	inst  *Instruments

	// runSpan is the trace-tree root's span ID (always 1); spanSeq
	// allocates the rest. cellSpans maps an in-flight engine cell index
	// to its span so attempts and the finish event share a parent.
	spanSeq   uint64
	cellSpans map[int]uint64

	cells    []cellRecord
	started  int64
	finished int64
	failed   int64
	attempts int64
	retries  int64
	refs     uint64
	byOut    map[string]int64

	ckptHits   int64
	ckptMisses int64
	ckptWrites int64
	ckptSaved  time.Duration
}

// runSpanID is the span ID of the trace tree's root (the job/run span).
const runSpanID = 1

// NewCollector returns a collector expecting total cells (0 if unknown;
// the count only feeds progress/ETA arithmetic and the report header).
// The run clock starts now.
func NewCollector(total int) *Collector {
	return &Collector{
		start: time.Now(), total: total, byOut: map[string]int64{},
		spanSeq: runSpanID, cellSpans: map[int]uint64{},
	}
}

// nextSpanLocked allocates a fresh span ID. Callers hold c.mu.
func (c *Collector) nextSpanLocked() uint64 {
	c.spanSeq++
	return c.spanSeq
}

// SetInstruments routes the collector's counters into live obs metrics
// as well; see NewInstruments. Attach before the run starts. A nil
// receiver or nil instruments is a no-op, so CLIs that never bind
// -debug-addr pay nothing.
func (c *Collector) SetInstruments(inst *Instruments) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inst = inst
}

// SetTotal updates the expected cell count (a resuming sweep only knows
// its pending count after consulting the checkpoint journal).
func (c *Collector) SetTotal(total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total = total
}

// SetTrace attaches a structured event trace; every subsequent collector
// event is also appended to it. Attach before the run starts.
func (c *Collector) SetTrace(tw *TraceWriter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = tw
}

// emit appends ev to the trace if one is attached. Callers hold c.mu.
func (c *Collector) emit(ev Event) {
	if c.trace != nil {
		c.trace.Emit(ev)
	}
}

// CellStarted implements engine.Collector.
func (c *Collector) CellStarted(ev engine.CellStart) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started++
	span := c.nextSpanLocked()
	c.cellSpans[ev.Index] = span
	c.inst.cellStarted(ev.QueueWait)
	c.emit(Event{T: EventCellStart, Span: span, Parent: runSpanID,
		Cell: ev.Label, Index: ev.Index, QueueMS: ms(ev.QueueWait)})
}

// CellAttempted implements engine.Collector.
func (c *Collector) CellAttempted(ev engine.CellAttempt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts++
	if ev.Attempt > 1 {
		c.retries++
	}
	c.inst.cellAttempted(ev.Attempt)
	c.emit(Event{T: EventCellAttempt, Span: c.nextSpanLocked(), Parent: c.cellSpans[ev.Index],
		Cell: ev.Label, Index: ev.Index, Attempt: ev.Attempt,
		WallMS: ms(ev.Wall), Outcome: ev.Outcome, Err: errString(ev.Err)})
}

// CellFinished implements engine.Collector. The finish event reuses the
// span CellStarted allocated for the index.
func (c *Collector) CellFinished(ev engine.CellFinish) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inst.cellExtras(ev.Label, ev.Extras)
	rec := cellRecord{
		label: ev.Label, queueWait: ev.QueueWait, wall: ev.Wall,
		attempts: ev.Attempts, refs: ev.Refs, outcome: ev.Outcome, err: errString(ev.Err),
	}
	c.cells = append(c.cells, rec)
	c.finished++
	c.byOut[rec.outcome]++
	c.refs += rec.refs
	if rec.outcome != engine.OutcomeOK {
		c.failed++
	}
	c.inst.cellFinished(rec.wall, rec.refs, rec.label, rec.outcome)
	span := c.cellSpans[ev.Index]
	delete(c.cellSpans, ev.Index)
	c.emit(Event{T: EventCellFinish, Span: span, Parent: runSpanID,
		Cell: rec.label, Index: ev.Index, Attempt: rec.attempts,
		QueueMS: ms(rec.queueWait), WallMS: ms(rec.wall), Refs: rec.refs,
		Outcome: rec.outcome, Err: rec.err})
}

// CheckpointHit books a cell satisfied from the checkpoint journal
// instead of being re-simulated; saved is the journaled wall time the
// resume avoided (0 if the journal did not record one).
func (c *Collector) CheckpointHit(label string, saved time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ckptHits++
	c.ckptSaved += saved
	c.inst.checkpointHit()
	c.emit(Event{T: EventCheckpointResume, Span: c.nextSpanLocked(), Parent: runSpanID,
		Cell: label, SavedMS: ms(saved)})
}

// CheckpointMiss books a cell that had to run despite a journal being
// present (the hit/miss ratio of a resume).
func (c *Collector) CheckpointMiss() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ckptMisses++
}

// CheckpointWrite books one record appended to the checkpoint journal;
// took is the append's save latency (0 if the caller did not time it).
func (c *Collector) CheckpointWrite(label string, took time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ckptWrites++
	c.inst.checkpointWrite(took)
	c.emit(Event{T: EventCheckpointWrite, Span: c.nextSpanLocked(), Parent: runSpanID,
		Cell: label, WallMS: ms(took)})
}

// Annotate emits a custom trace event (no-op without an attached trace):
// CLIs use it to mark phases, e.g. one event per experiment.
func (c *Collector) Annotate(event, note string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.emit(Event{T: event, Note: note})
}

// Start emits the run_start trace event opening the run span; note
// typically echoes the command line.
func (c *Collector) Start(note string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.emit(Event{T: EventRunStart, Span: runSpanID, Note: note})
}

// Finish emits the run_summary trace event carrying the final counters
// and closing the run span, then flushes the trace buffer. Call once,
// when the run is over.
func (c *Collector) Finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.snapshotLocked()
	c.emit(Event{T: EventRunSummary, Span: runSpanID, WallMS: snap.ElapsedMS, Refs: snap.Refs,
		Note: summaryNote(snap)})
	if c.trace != nil {
		_ = c.trace.Flush()
	}
}

// Snapshot is the collector's live counter set — the payload behind
// progress meters.
type Snapshot struct {
	CellsTotal    int     `json:"cells_total"`
	CellsStarted  int64   `json:"cells_started"`
	CellsDone     int64   `json:"cells_done"`
	CellsFailed   int64   `json:"cells_failed"`
	CellsInflight int64   `json:"cells_inflight"`
	Attempts      int64   `json:"attempts"`
	Retries       int64   `json:"retries"`
	Refs          uint64  `json:"refs"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	CellsPerSec   float64 `json:"cells_per_sec"`
	RefsPerSec    float64 `json:"refs_per_sec"`
	CheckpointHit int64   `json:"checkpoint_hits"`
}

// Snapshot returns the current counters.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Collector) snapshotLocked() Snapshot {
	elapsed := time.Since(c.start)
	s := Snapshot{
		CellsTotal:    c.total,
		CellsStarted:  c.started,
		CellsDone:     c.finished,
		CellsFailed:   c.failed,
		CellsInflight: c.started - c.finished,
		Attempts:      c.attempts,
		Retries:       c.retries,
		Refs:          c.refs,
		ElapsedMS:     ms(elapsed),
		CheckpointHit: c.ckptHits,
	}
	secs := elapsed.Seconds()
	s.CellsPerSec = safeRate(float64(c.finished), secs)
	s.RefsPerSec = safeRate(float64(c.refs), secs)
	return s
}

// safeRate returns n/secs clamped to a finite, non-negative value: 0 for
// a zero, negative (clock adjustment), or pathological window. RunReport
// and Snapshot rates go through it so a run that completes inside one
// clock tick can never put +Inf or NaN into the JSON — which
// encoding/json refuses to marshal, failing the whole report write.
func safeRate(n, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	r := n / secs
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return 0
	}
	return r
}

// ETA estimates time remaining from a progress meter's done/total cell
// counts and the collector's observed rate (0 when unknown).
func (c *Collector) ETA(done, total int) time.Duration {
	if done <= 0 || done >= total {
		return 0
	}
	rate := c.Snapshot().CellsPerSec
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(total-done) / rate * float64(time.Second))
}

// ms converts a duration to milliseconds as a float.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sortedLocked extracts one duration per finished cell in milliseconds,
// sorted, for percentile aggregation. Callers hold c.mu.
func (c *Collector) sortedLocked(get func(cellRecord) time.Duration) []float64 {
	xs := make([]float64, len(c.cells))
	for i, rec := range c.cells {
		xs[i] = ms(get(rec))
	}
	sort.Float64s(xs)
	return xs
}
