package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/engine"
)

// ReportSchema versions the RunReport JSON so downstream tooling can
// reject reports it does not understand.
const ReportSchema = "dynex-run-report/v1"

// Quantiles summarizes a latency distribution in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// QuantilesOf computes nearest-rank percentiles of xs (need not be
// sorted; the zero value for an empty input).
func QuantilesOf(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return Quantiles{
		P50:  quantile(s, 0.50),
		P90:  quantile(s, 0.90),
		P99:  quantile(s, 0.99),
		Max:  s[len(s)-1],
		Mean: sum / float64(len(s)),
	}
}

// quantile is the nearest-rank quantile of sorted s: the smallest element
// such that at least q of the distribution is at or below it.
func quantile(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// CellCounts breaks a run's cells down by outcome.
type CellCounts struct {
	// Total is the number of cells the run expected to execute (0 when
	// the caller never declared one; then Finished is the population).
	Total    int   `json:"total"`
	Started  int64 `json:"started"`
	Finished int64 `json:"finished"`
	OK       int64 `json:"ok"`
	Failed   int64 `json:"failed"`
	Panics   int64 `json:"panics"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	Errors   int64 `json:"errors"`
}

// CheckpointCounts reports resume effectiveness: hits are cells satisfied
// from the journal, misses are cells that ran despite a journal being
// present, and SavedMS is the journaled simulation time the resume
// avoided re-spending.
type CheckpointCounts struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Writes  int64   `json:"writes"`
	SavedMS float64 `json:"saved_ms"`
}

// SlowCell is one entry of the report's slowest-cells table.
type SlowCell struct {
	Cell     string  `json:"cell"`
	WallMS   float64 `json:"wall_ms"`
	Attempts int     `json:"attempts"`
	Outcome  string  `json:"outcome"`
}

// CellFailure is one failed cell, for reports of partially failed runs.
type CellFailure struct {
	Cell    string `json:"cell"`
	Outcome string `json:"outcome"`
	Err     string `json:"err"`
}

// RunReport is the machine-readable outcome of one instrumented run —
// the -report FILE payload of the CLIs and the BENCH_*.json format.
type RunReport struct {
	Schema  string `json:"schema"`
	Command string `json:"command,omitempty"`
	// WallMS is the collector's lifetime, which brackets the run.
	WallMS      float64          `json:"wall_ms"`
	Cells       CellCounts       `json:"cells"`
	Attempts    int64            `json:"attempts"`
	Retries     int64            `json:"retries"`
	Refs        uint64           `json:"refs"`
	RefsPerSec  float64          `json:"refs_per_sec"`
	CellsPerSec float64          `json:"cells_per_sec"`
	CellWallMS  Quantiles        `json:"cell_wall_ms"`
	QueueWaitMS Quantiles        `json:"queue_wait_ms"`
	Checkpoint  CheckpointCounts `json:"checkpoint"`
	Slowest     []SlowCell       `json:"slowest_cells,omitempty"`
	Failures    []CellFailure    `json:"failures,omitempty"`
}

// slowestN is the length of the report's slowest-cells table.
const slowestN = 10

// Report aggregates everything collected so far into a RunReport.
func (c *Collector) Report() RunReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := time.Since(c.start)
	r := RunReport{
		Schema: ReportSchema,
		WallMS: ms(elapsed),
		Cells: CellCounts{
			Total:    c.total,
			Started:  c.started,
			Finished: c.finished,
			OK:       c.byOut[engine.OutcomeOK],
			Failed:   c.failed,
			Panics:   c.byOut[engine.OutcomePanic],
			Timeouts: c.byOut[engine.OutcomeTimeout],
			Canceled: c.byOut[engine.OutcomeCanceled],
			Errors:   c.byOut[engine.OutcomeError],
		},
		Attempts: c.attempts,
		Retries:  c.retries,
		Refs:     c.refs,
		Checkpoint: CheckpointCounts{
			Hits: c.ckptHits, Misses: c.ckptMisses,
			Writes: c.ckptWrites, SavedMS: ms(c.ckptSaved),
		},
	}
	if r.Cells.Total == 0 {
		r.Cells.Total = int(c.finished)
	}
	secs := elapsed.Seconds()
	r.RefsPerSec = safeRate(float64(c.refs), secs)
	r.CellsPerSec = safeRate(float64(c.finished), secs)
	r.CellWallMS = QuantilesOf(c.sortedLocked(func(rec cellRecord) time.Duration { return rec.wall }))
	r.QueueWaitMS = QuantilesOf(c.sortedLocked(func(rec cellRecord) time.Duration { return rec.queueWait }))

	bySlow := append([]cellRecord(nil), c.cells...)
	sort.SliceStable(bySlow, func(i, j int) bool { return bySlow[i].wall > bySlow[j].wall })
	for i, rec := range bySlow {
		if i >= slowestN {
			break
		}
		r.Slowest = append(r.Slowest, SlowCell{Cell: rec.label, WallMS: ms(rec.wall),
			Attempts: rec.attempts, Outcome: rec.outcome})
	}
	for _, rec := range c.cells {
		if rec.outcome != engine.OutcomeOK {
			r.Failures = append(r.Failures, CellFailure{Cell: rec.label, Outcome: rec.outcome, Err: rec.err})
		}
	}
	return r
}

// writeReport marshals the report (with the given command line recorded)
// as indented JSON to path.
func (c *Collector) writeReport(path, command string) error {
	r := c.Report()
	r.Command = command
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summaryNote renders the one-line human summary embedded in the
// run_summary trace event.
func summaryNote(s Snapshot) string {
	return fmt.Sprintf("%d cells (%d failed), %d attempts, %d refs, %.0f refs/sec, %d checkpoint hits",
		s.CellsDone, s.CellsFailed, s.Attempts, s.Refs, s.RefsPerSec, s.CheckpointHit)
}
