package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

// runJob executes one admitted job to a terminal state — or to an
// interruption (drain, kill, deadline) that the next server start can
// resume from. Crash safety is the sweep checkpoint contract: every
// finished cell is appended to the job's journal before it is
// acknowledged anywhere else, so the journal is always a prefix of the
// truth and a resumed run re-simulates only what is missing.
func (s *Server) runJob(j *job) {
	m := j.manifest()
	defer s.wg.Done()
	defer s.q.release(m.Tenant)
	if j.state() == StateCancelled {
		return // cancelled while queued; the slot was claimed anyway
	}
	s.observeQueueWait(j.enqueuedAt)
	if s.cfg.BeforeJob != nil {
		s.cfg.BeforeJob(m.ID)
	}

	jctx, cancel := context.WithCancelCause(s.jobsCtx)
	defer cancel(nil)
	runCtx := jctx
	if m.Spec.TimeoutMS > 0 {
		var cancelTimeout context.CancelFunc
		runCtx, cancelTimeout = context.WithTimeout(jctx, time.Duration(m.Spec.TimeoutMS)*time.Millisecond)
		defer cancelTimeout()
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	s.setState(j, StateRunning, "")

	failedCells, err := s.executeJob(runCtx, j)
	switch {
	case err == nil:
		j.mu.Lock()
		j.m.FailedCells = failedCells
		j.mu.Unlock()
		s.setState(j, StateDone, "")
		s.obsm.jobsDone.Inc()
		done, total := j.progress()
		j.tail.finish(Event{Type: "done", State: StateDone, Done: done, Total: total})
	case errors.Is(err, errJobCancelled):
		s.setState(j, StateCancelled, "")
		j.tail.finish(Event{Type: "done", State: StateCancelled})
	case errors.Is(err, context.DeadlineExceeded):
		s.setState(j, StateFailed, "job deadline exceeded")
		s.obsm.jobsFailed.Inc()
		j.tail.finish(Event{Type: "done", State: StateFailed, Error: "job deadline exceeded"})
	case errors.Is(err, errShutdown), errors.Is(err, context.Canceled):
		// Drain or kill: leave the manifest saying "running" so the next
		// server start re-enqueues and resumes. The tail stays open —
		// streaming clients lose the connection when the process exits,
		// exactly as a crash would.
		return
	default:
		s.setState(j, StateFailed, err.Error())
		s.obsm.jobsFailed.Inc()
		j.tail.finish(Event{Type: "done", State: StateFailed, Error: err.Error()})
	}
}

// executeJob runs the job's grid against its journal. It returns the
// number of cells that failed terminally (their CSV rows are withheld),
// or an error: a context error for interruptions, anything else for a
// job-level failure.
func (s *Server) executeJob(ctx context.Context, j *job) (int, error) {
	m := j.manifest()
	gs, err := m.Spec.gridSpec(s.st)
	if err != nil {
		return 0, err
	}
	plan, err := gs.Build()
	if err != nil {
		return 0, err
	}
	inj, err := faultinject.ParseDirective(m.Spec.Inject)
	if err != nil {
		return 0, err
	}
	skip := inj.Apply(&plan)

	journal, err := checkpoint.Open(s.st.journalPath(m.ID))
	if err != nil {
		return 0, err
	}
	defer journal.Close()

	col := telemetry.NewCollector(len(plan.Cells))
	col.SetInstruments(s.obsm.inst)
	// Resume: cells already journaled (a previous run of this job) are
	// restored and replayed onto the event stream before anything runs;
	// the shared run step simulates only the rest.
	merged, pending := plan.Restore(journal, col)
	col.SetTotal(len(pending))
	resumed := len(plan.Cells) - len(pending)
	j.mu.Lock()
	j.total = len(plan.Cells)
	j.done = resumed
	j.resumed = resumed
	j.mu.Unlock()
	replayRestored(j.tail, merged)

	col.Start("dynex-serve job " + m.ID)
	// Periodic report-delta frames: a point-in-time RunReport snapshot on
	// the job's stream every ReportInterval, so a client watching the
	// JSONL/SSE feed sees live refs/sec and quantiles without polling the
	// report endpoint. The ticker stops (and is awaited) before the final
	// frame so the stream's last report-delta is always the pinned one.
	reportCmd := "dynex-serve job " + m.ID
	tickStop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		tick := time.NewTicker(s.cfg.ReportInterval)
		defer tick.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-tick.C:
				rep := col.Report()
				rep.Command = reportCmd
				if data, err := json.Marshal(rep); err == nil {
					j.tail.append(Event{Type: "report-delta", Report: data})
					s.obsm.reportDeltas.Inc()
				}
			}
		}
	}()
	// The shared run step: the same partition into size columns
	// (DESIGN.md §15), journal and merge as dynex-sweep's.
	runErr := plan.Run(ctx, merged, pending, grid.RunOptions{
		Engine: engine.Options{
			Workers:     s.cfg.Workers,
			Retry:       s.cfg.Retry,
			CellTimeout: s.cfg.CellTimeout,
			Collector:   col,
		},
		Journal: journal,
		Book:    col,
		Skip:    skip,
		OnCell: func(i int, r engine.Result, appendErr error) {
			if r.Err != nil {
				// Interrupted cells are not outcomes: they re-run on
				// resume. Real failures are reported but never journaled,
				// so a future resume retries them.
				if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
					return
				}
				j.mu.Lock()
				j.done++
				j.mu.Unlock()
				j.tail.append(Event{Type: "cell_error", Index: i, Label: r.Label, Attempts: r.Attempts, Error: r.Err.Error()})
				return
			}
			if appendErr != nil {
				// The run result is still correct; only durability is
				// degraded. The cell re-runs after a crash.
				j.tail.append(Event{Type: "cell_error", Index: i, Label: r.Label, Error: "journal: " + appendErr.Error()})
			}
			s.obsm.cellsDone.Inc()
			j.mu.Lock()
			j.done++
			j.mu.Unlock()
			j.tail.append(cellEvent(i, r, false))
		},
	})
	close(tickStop)
	<-tickDone
	col.Finish()
	// The end-of-job report is rendered once and used twice: written to
	// report.json (indented — what GET /v1/jobs/{id}/report serves) and
	// appended to the stream as the final report-delta frame (compact).
	// Same marshal, two spacings, so the stream's final frame is pinned
	// byte-identical to the report endpoint modulo indentation. A drain
	// or kill skips both — the resumed run produces the real final.
	rep := col.Report()
	rep.Command = reportCmd
	if data, err := json.Marshal(rep); err == nil {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, data, "", "  "); err == nil {
			pretty.WriteByte('\n')
			// Telemetry is passive: a report write failure never fails
			// the job.
			_ = os.WriteFile(filepath.Join(s.st.jobDir(m.ID), "report.json"), pretty.Bytes(), 0o644)
		}
		if runErr == nil {
			j.tail.append(Event{Type: "report-delta", Final: true, Report: data})
			s.obsm.reportDeltas.Inc()
		}
	}
	if runErr != nil {
		// Prefer the cancellation cause: a client cancel and a drain both
		// surface as context.Canceled, but must land in different states.
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			return 0, cause
		}
		return 0, runErr
	}
	failed := 0
	for i := range merged {
		if merged[i].Err != nil {
			failed++
		}
	}
	return failed, nil
}

// replayRestored appends a resumed cell event, in plan order, for every
// result Restore filled from the journal.
func replayRestored(t *tail, results []engine.Result) {
	for i, r := range results {
		if r.Err == nil {
			t.append(cellEvent(i, r, true))
		}
	}
}

// cellEvent renders a successful cell result as a stream event; the
// miss-rate rendering matches the CSV's fixed 6-decimal format exactly.
func cellEvent(i int, r engine.Result, resumed bool) Event {
	return Event{
		Type: "cell", Index: i, Label: r.Label,
		MissRate: strconv.FormatFloat(r.Stats.MissRate(), 'f', 6, 64),
		Misses:   r.Stats.Misses, Accesses: r.Stats.Accesses,
		Attempts: r.Attempts, Resumed: resumed,
	}
}

// restoreJob rebuilds a job's plan and restores its results from the
// journal (grid.Plan.Restore, nothing booked): a finished job's CSV and
// replayed result stream come from these alone.
func (s *Server) restoreJob(m Manifest) (grid.Plan, []engine.Result, error) {
	gs, err := m.Spec.gridSpec(s.st)
	if err != nil {
		return grid.Plan{}, nil, err
	}
	plan, err := gs.Build()
	if err != nil {
		return grid.Plan{}, nil, err
	}
	journal, err := checkpoint.Open(s.st.journalPath(m.ID))
	if err != nil {
		return grid.Plan{}, nil, err
	}
	defer journal.Close()
	results, _ := plan.Restore(journal, nil)
	return plan, results, nil
}

// jobCSV renders a job's final CSV from its journal — the same
// grid.WriteCSV path dynex-sweep uses, which is what makes the bytes
// identical. Only terminal jobs have a complete journal; missing cells
// in a done job are exactly its failed cells, whose rows are withheld.
func (s *Server) jobCSV(j *job) ([]byte, error) {
	plan, results, err := s.restoreJob(j.manifest())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := plan.WriteCSV(&buf, results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
