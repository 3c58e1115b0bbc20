// Package serve is the dynex simulation service: a long-running HTTP
// server that accepts simulation jobs (the same policy × geometry grids
// cmd/dynex-sweep runs), executes them on the resilient engine, and
// streams per-cell results. Its contract is robustness under load and
// failure:
//
//   - Backpressure: the job queue is bounded; an admission past capacity
//     is refused with 429 + Retry-After, never buffered without bound.
//   - Fairness: dispatch round-robins across tenants and caps each
//     tenant's concurrently running jobs, so one noisy tenant cannot
//     monopolize the worker pool.
//   - Crash safety: every job is durable from admission (manifest +
//     per-cell checkpoint journal under the data directory). A killed
//     server restarts, re-enqueues queued and running jobs, replays
//     journaled cells, and re-simulates only the missing ones — final
//     results are byte-identical to an uninterrupted run.
//   - Graceful drain: on shutdown the server stops admitting (readyz
//     flips not-ready, admissions get 503), gives running jobs a grace
//     window to finish, then cancels them at a chunk boundary; their
//     journals make the interruption invisible to the final output.
//   - Degradation: oversized jobs (refs or cell count past the server's
//     caps) are refused at the door with a clear error instead of being
//     accepted and starved.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Config tunes a Server. The zero value is usable for tests: defaults
// are filled in by New.
type Config struct {
	// DataDir roots the durable state (jobs, journals, uploaded traces).
	DataDir string
	// QueueDepth bounds the number of queued (admitted, not yet running)
	// jobs; admissions past it get 429. Default 64.
	QueueDepth int
	// MaxActive bounds concurrently running jobs. Default 4.
	MaxActive int
	// TenantActive bounds one tenant's concurrently running jobs.
	// Default 2.
	TenantActive int
	// Workers is the engine worker count per running job. Default 1 —
	// job-level parallelism comes from MaxActive.
	Workers int
	// MaxRefs and MaxCells are admission caps on job size; 0 = no cap.
	MaxRefs  int
	MaxCells int
	// Retry and CellTimeout are passed to the engine for every job.
	Retry       engine.Retry
	CellTimeout time.Duration
	// DrainGrace is how long Run waits for running jobs to finish after
	// shutdown begins before cancelling them. Default 5s.
	DrainGrace time.Duration
	// Heartbeat is the idle interval between heartbeat events on result
	// streams. Default 10s.
	Heartbeat time.Duration
	// ReportInterval is how often a running job's stream gets a
	// report-delta frame (a point-in-time RunReport snapshot). Default 2s.
	ReportInterval time.Duration
	// EnableFaults allows the job spec's "inject" directive — the load
	// suite's deterministic fault injection. Off for real servers.
	EnableFaults bool
	// BeforeJob, when non-nil, runs at the start of each job's execution
	// (test seam: hold jobs running to fill the queue deterministically).
	BeforeJob func(id string)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 4
	}
	if c.TenantActive <= 0 {
		c.TenantActive = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 10 * time.Second
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = 2 * time.Second
	}
	return c
}

// Cancellation causes, distinguished via context.Cause: a client cancel
// is a terminal state; a drain or kill leaves the job resumable.
var (
	errJobCancelled = errors.New("serve: job cancelled by client")
	errShutdown     = errors.New("serve: server shutting down")
)

// Server is one service instance over one data directory.
type Server struct {
	cfg Config
	st  *store
	q   *queue

	mu   sync.Mutex
	jobs map[string]*job
	seq  uint64

	draining   atomic.Bool
	jobsCtx    context.Context
	jobsCancel context.CancelCauseFunc
	wg         sync.WaitGroup // dispatcher + running jobs

	// obsm is the service's only counter set: the registry behind
	// GET /metrics.
	obsm *serveMetrics
}

// New builds a server over dataDir and runs crash recovery: every
// readable manifest is registered, and jobs that were queued or running
// when the previous process died are re-enqueued in their original
// admission order — their journals make the re-run resume, not restart.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st, err := newStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	jobsCtx, jobsCancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg: cfg, st: st,
		q:          newQueue(cfg.QueueDepth, cfg.MaxActive, cfg.TenantActive),
		jobs:       map[string]*job{},
		jobsCtx:    jobsCtx,
		jobsCancel: jobsCancel,
	}
	s.obsm = newServeMetrics(s.q)
	manifests, err := st.loadManifests()
	if err != nil {
		return nil, err
	}
	for _, m := range manifests {
		if m.Seq >= s.seq {
			s.seq = m.Seq + 1
		}
		j := &job{m: m}
		j.total, _ = m.Spec.cells() // validated at admission
		if terminal(m.State) {
			j.done = j.total
			s.jobs[m.ID] = j
			continue
		}
		// Queued or running at crash/drain time: back to the queue. The
		// re-enqueue bypasses the admission bound — the job was already
		// admitted and acknowledged.
		j.tail = newTail()
		j.enqueuedAt = time.Now()
		s.jobs[m.ID] = j
		s.q.pushRecovered(j)
		s.obsm.jobsResumed.Inc()
	}
	return s, nil
}

// Run dispatches jobs until ctx is cancelled, then drains: admission
// stops, running jobs get DrainGrace to finish, stragglers are
// cancelled at a chunk boundary (their journals preserve completed
// cells), and Run returns once everything has stopped.
func (s *Server) Run(ctx context.Context) error {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			j := s.q.next()
			if j == nil {
				return
			}
			s.wg.Add(1)
			go s.runJob(j)
		}
	}()
	<-ctx.Done()

	drainStart := time.Now()
	s.draining.Store(true)
	s.q.close()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(s.cfg.DrainGrace):
		s.jobsCancel(errShutdown)
		<-finished
	}
	s.obsm.drain.Set(time.Since(drainStart).Seconds())
	return nil
}

// Kill aborts every running job immediately without any of drain's
// bookkeeping — the closest a test can get to kill -9 without a second
// process. Manifests keep their pre-crash states; journals keep
// whatever was flushed. A new Server over the same data directory must
// resume to byte-identical results.
func (s *Server) Kill() {
	s.draining.Store(true)
	s.q.close()
	s.jobsCancel(errShutdown)
	s.wg.Wait()
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// submit admits a job for the tenant, returning its manifest or an
// admission error.
func (s *Server) submit(tenant string, js JobSpec) (Manifest, error) {
	if err := js.validate(s.cfg); err != nil {
		s.obsm.rejected.WithLabelValues(tenant, rejectValidation).Inc()
		return Manifest{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
	}
	// If the spec names an uploaded trace, it must exist now — not when
	// a worker first materializes the stream.
	if js.Trace != "" {
		if _, err := s.st.readTrace(strings.TrimPrefix(js.Trace, "trace:")); err != nil {
			s.obsm.rejected.WithLabelValues(tenant, rejectValidation).Inc()
			return Manifest{}, &httpError{code: http.StatusBadRequest, msg: err.Error()}
		}
	}

	s.mu.Lock()
	seq := s.seq
	s.seq++
	id := fmt.Sprintf("j%06d", seq)
	m := Manifest{ID: id, Tenant: tenant, Seq: seq, Spec: js, State: StateQueued}
	j := &job{m: m, tail: newTail(), enqueuedAt: time.Now()}
	j.total, _ = js.cells() // validated above
	s.jobs[id] = j
	s.mu.Unlock()

	// Durable before acknowledged: once the client has the ID, a crash
	// cannot lose the job.
	if err := s.st.writeManifest(m); err != nil {
		s.dropJob(id)
		return Manifest{}, fmt.Errorf("serve: persist job: %w", err)
	}
	if s.draining.Load() || !s.q.push(j) {
		// Refused: roll the durable record back to a terminal state so a
		// restart does not resurrect a job the client was told to retry.
		s.obsm.rejected.WithLabelValues(tenant, rejectBackpressure).Inc()
		s.setState(j, StateCancelled, "refused: queue full")
		code := http.StatusTooManyRequests
		if s.draining.Load() {
			code = http.StatusServiceUnavailable
		}
		return Manifest{}, &httpError{code: code, msg: "queue full, retry later", retryAfter: 1}
	}
	s.obsm.admitted.WithLabelValues(tenant).Inc()
	return m, nil
}

// getJob returns the in-memory job for id, or nil.
func (s *Server) getJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) dropJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// listJobs snapshots every job's status in admission order.
func (s *Server) listJobs() []Status {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	sts := make([]Status, len(js))
	for i, j := range js {
		sts[i] = j.status()
	}
	sort.Slice(sts, func(a, b int) bool { return sts[a].ID < sts[b].ID })
	return sts
}

// setState persists a job state transition (manifest rewrite is atomic).
func (s *Server) setState(j *job, state, errMsg string) {
	j.mu.Lock()
	j.m.State = state
	j.m.Error = errMsg
	m := j.m
	j.mu.Unlock()
	if err := s.st.writeManifest(m); err != nil {
		// The in-memory state is authoritative for this process; the
		// stale manifest means a crash would replay the job, which the
		// journal makes harmless.
		fmt.Fprintln(os.Stderr, "serve: manifest write failed:", err)
	}
}

// cancelJob handles DELETE: queued jobs flip straight to cancelled (the
// dispatcher skips them), running jobs get their context cancelled with
// the client-cancel cause.
func (s *Server) cancelJob(j *job) Status {
	j.mu.Lock()
	state := j.m.State
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case StateQueued:
		s.setState(j, StateCancelled, "")
		j.tail.finish(Event{Type: "done", State: StateCancelled})
	case StateRunning:
		if cancel != nil {
			cancel(errJobCancelled)
		}
	}
	return j.status()
}

// httpError is an admission failure with a status code.
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func retryAfterHeader(e *httpError) string {
	if e.retryAfter <= 0 {
		return ""
	}
	return strconv.Itoa(e.retryAfter)
}
