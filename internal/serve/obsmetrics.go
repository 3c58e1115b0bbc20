package serve

import (
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Metric names of the service's Prometheus surface (GET /metrics on the
// API port and on -debug-addr). Names are package-level constants
// registered exactly once per server registry — the dynexcheck
// obs-metrics rule enforces the convention.
const (
	MetricJobsAdmitted   = "dynex_serve_jobs_admitted_total"
	MetricJobsRejected   = "dynex_serve_jobs_rejected_total"
	MetricJobsDone       = "dynex_serve_jobs_done_total"
	MetricJobsFailed     = "dynex_serve_jobs_failed_total"
	MetricJobsResumed    = "dynex_serve_jobs_resumed_total"
	MetricCellsCompleted = "dynex_serve_cells_completed_total"
	MetricQueueDepth     = "dynex_serve_queue_depth"
	MetricActiveJobs     = "dynex_serve_active_jobs"
	MetricQueueWait      = "dynex_serve_job_queue_wait_seconds"
	MetricDrainSeconds   = "dynex_serve_drain_seconds"
	MetricReportDeltas   = "dynex_serve_report_deltas_total"
)

// Rejection reasons, the label values of MetricJobsRejected.
const (
	rejectBackpressure = "backpressure"
	rejectValidation   = "validation"
)

// tenantMaxSeries bounds per-tenant label cardinality: tenants are
// client-chosen strings, so past the bound new tenants collapse into
// the shared overflow series instead of growing the registry.
const tenantMaxSeries = 64

// serveMetrics is the server's obs instrument set, the one place a
// service or job counter lives. Cells restored from a job's journal are
// dynex_checkpoint_hits_total on inst, not a service counter of their
// own.
type serveMetrics struct {
	reg *obs.Registry
	// inst is the engine/telemetry instrument set registered on the same
	// registry: every job's collector feeds it, so cell wall histograms,
	// refs/sec, and policy Extras counters show up on the server scrape.
	inst *telemetry.Instruments

	admitted     *obs.CounterVec
	rejected     *obs.CounterVec
	jobsDone     *obs.Counter
	jobsFailed   *obs.Counter
	jobsResumed  *obs.Counter
	cellsDone    *obs.Counter
	queueWait    *obs.Histogram
	drain        *obs.Gauge
	reportDeltas *obs.Counter
}

// newServeMetrics builds a per-server registry. Per-server (instead of
// obs.Default) because tests and restarts construct many Servers in one
// process, and registration is intentionally register-once-or-panic.
func newServeMetrics(q *queue) *serveMetrics {
	reg := obs.NewRegistry()
	m := &serveMetrics{reg: reg, inst: telemetry.NewInstruments(reg, policy.Names())}
	m.admitted = reg.NewCounterVec(MetricJobsAdmitted, "Jobs accepted into the queue.", []string{"tenant"}, tenantMaxSeries)
	m.rejected = reg.NewCounterVec(MetricJobsRejected, "Jobs refused at admission, by reason (backpressure = 429/503, validation = 400).",
		[]string{"tenant", "reason"}, 2*tenantMaxSeries)
	m.jobsDone = reg.NewCounter(MetricJobsDone, "Jobs that reached the done state.")
	m.jobsFailed = reg.NewCounter(MetricJobsFailed, "Jobs that reached the failed state.")
	m.jobsResumed = reg.NewCounter(MetricJobsResumed, "Jobs re-enqueued by crash recovery.")
	m.cellsDone = reg.NewCounter(MetricCellsCompleted, "Cells simulated to completion on this server.")
	reg.NewGaugeFunc(MetricQueueDepth, "Jobs admitted but not yet running.", func() float64 {
		queued, _ := q.depthNow()
		return float64(queued)
	})
	reg.NewGaugeFunc(MetricActiveJobs, "Jobs currently running.", func() float64 {
		_, active := q.depthNow()
		return float64(active)
	})
	m.queueWait = reg.NewHistogram(MetricQueueWait, "How long jobs queued before dispatch.", obs.DurationBuckets())
	m.drain = reg.NewGauge(MetricDrainSeconds, "Wall time of the last graceful drain.")
	m.reportDeltas = reg.NewCounter(MetricReportDeltas, "report-delta frames appended to job streams.")
	return m
}

// Metrics returns the server's metrics registry — the handler behind
// GET /metrics, and what cmd/dynex-serve passes to obs.ServeDebug so
// -debug-addr scrapes the same series as the API port.
func (s *Server) Metrics() *obs.Registry { return s.obsm.reg }

// observeQueueWait books one job's admission-to-dispatch latency.
func (s *Server) observeQueueWait(enqueuedAt time.Time) {
	if !enqueuedAt.IsZero() {
		s.obsm.queueWait.Observe(time.Since(enqueuedAt).Seconds())
	}
}
