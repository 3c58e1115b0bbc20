package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Metric names the collector publishes through internal/obs. Names are
// package-level constants registered exactly once per registry — the
// dynexcheck obs-metrics rule enforces the convention repo-wide.
const (
	MetricCellsCompleted = "dynex_cells_completed_total"
	MetricCellsFailed    = "dynex_cells_failed_total"
	MetricCellsInflight  = "dynex_cells_inflight"
	MetricCellAttempts   = "dynex_cell_attempts_total"
	MetricCellRetries    = "dynex_cell_retries_total"
	MetricRefs           = "dynex_refs_total"
	MetricRefsPerSec     = "dynex_refs_per_second"
	MetricQueueWait      = "dynex_cell_queue_wait_seconds"
	MetricCellWall       = "dynex_cell_wall_seconds"
	MetricCkptSave       = "dynex_checkpoint_save_seconds"
	MetricCkptHits       = "dynex_checkpoint_hits_total"
	MetricCkptWrites     = "dynex_checkpoint_writes_total"
	MetricPolicyExtras   = "dynex_policy_extras_total"
)

// otherFamily is the cell-wall/extras label for cells whose label does
// not end in a registered policy family — it keeps the label set closed
// no matter what free-form labels a caller invents.
const otherFamily = "other"

// extrasMaxSeries bounds the {family, counter} label space of
// MetricPolicyExtras: families are bounded by the registry, and each
// family exposes a handful of fixed counter names.
const extrasMaxSeries = 128

// Instruments is the live-metrics half of a Collector: the same events
// that feed the RunReport also update these obs instruments, so a
// half-finished sweep is scrapeable at /metrics while it runs. One
// Instruments can back many sequential collectors (the registry outlives
// a run); totals are process-lifetime, not per-run.
type Instruments struct {
	families map[string]bool

	cellsCompleted *obs.Counter
	cellsFailed    *obs.Counter
	cellsInflight  *obs.Gauge
	attempts       *obs.Counter
	retries        *obs.Counter
	refs           *obs.Counter
	queueWait      *obs.Histogram
	cellWall       *obs.HistogramVec
	ckptSave       *obs.Histogram
	ckptHits       *obs.Counter
	ckptWrites     *obs.Counter
	extras         *obs.CounterVec

	startNS  int64
	refsLive atomic.Uint64 // backs the refs/sec gauge
}

// NewInstruments registers the collector's instrument set on reg.
// families is the closed set of policy-family label values (typically
// policy.Names()); labels outside it collapse to "other". Register once
// per registry — a second registration panics, by design.
func NewInstruments(reg *obs.Registry, families []string) *Instruments {
	in := &Instruments{families: map[string]bool{}, startNS: time.Now().UnixNano()}
	for _, f := range families {
		in.families[f] = true
	}
	in.cellsCompleted = reg.NewCounter(MetricCellsCompleted, "Simulation cells finished (any outcome).")
	in.cellsFailed = reg.NewCounter(MetricCellsFailed, "Simulation cells finished with a non-ok outcome.")
	in.cellsInflight = reg.NewGauge(MetricCellsInflight, "Simulation cells currently running.")
	in.attempts = reg.NewCounter(MetricCellAttempts, "Cell attempts, including retries.")
	in.retries = reg.NewCounter(MetricCellRetries, "Cell attempts beyond the first.")
	in.refs = reg.NewCounter(MetricRefs, "Trace references simulated.")
	reg.NewGaugeFunc(MetricRefsPerSec, "References simulated per second of process uptime.", func() float64 {
		secs := float64(time.Now().UnixNano()-in.startNS) / float64(time.Second)
		if secs <= 0 {
			return 0
		}
		return float64(in.refsLive.Load()) / secs
	})
	in.queueWait = reg.NewHistogram(MetricQueueWait, "How long cells queued before a worker picked them up.", obs.DurationBuckets())
	//dynexcheck:allow obs-metrics bound is the closed registered-family set plus "other"/overflow, not runtime data
	in.cellWall = reg.NewHistogramVec(MetricCellWall, "Cell wall time by policy family.", obs.DurationBuckets(), []string{"family"}, len(families)+2)
	in.ckptSave = reg.NewHistogram(MetricCkptSave, "Checkpoint journal append latency.", obs.DurationBuckets())
	in.ckptHits = reg.NewCounter(MetricCkptHits, "Cells satisfied from a checkpoint journal on resume.")
	in.ckptWrites = reg.NewCounter(MetricCkptWrites, "Records appended to a checkpoint journal.")
	in.extras = reg.NewCounterVec(MetricPolicyExtras, "Policy-specific simulator counters (sticky defenses, victim hits, ...).",
		[]string{"family", "counter"}, extrasMaxSeries)
	return in
}

var (
	defaultInstOnce sync.Once
	defaultInst     *Instruments
)

// defaultInstruments returns the process-wide Instruments on
// obs.Default, registering on first call. Open calls it once per run
// with a debug address, from possibly re-entered main seams (tests
// drive a CLI repeatedly in one process), so registration is
// idempotent; the families set is fixed by the first caller.
func defaultInstruments(families []string) *Instruments {
	defaultInstOnce.Do(func() { defaultInst = NewInstruments(obs.Default, families) })
	return defaultInst
}

// familyOf maps a cell label to its policy-family label value: the
// label's last '/' segment cut at ':' ("gcc/4096/16/de:sticky=2" →
// "de"), clamped to the registered set.
func (in *Instruments) familyOf(label string) string {
	fam := label
	if i := strings.LastIndexByte(fam, '/'); i >= 0 {
		fam = fam[i+1:]
	}
	if i := strings.IndexByte(fam, ':'); i >= 0 {
		fam = fam[:i]
	}
	if !in.families[fam] {
		return otherFamily
	}
	return fam
}

// The hook methods below are nil-safe so an uninstrumented Collector
// (no -debug-addr) pays a single nil check. They are called with the
// collector's mutex held and do only atomic/short-mutex work, keeping
// the engine's Collector-purity contract.

func (in *Instruments) cellStarted(queueWait time.Duration) {
	if in == nil {
		return
	}
	in.cellsInflight.Add(1)
	in.queueWait.Observe(queueWait.Seconds())
}

func (in *Instruments) cellAttempted(attempt int) {
	if in == nil {
		return
	}
	in.attempts.Inc()
	if attempt > 1 {
		in.retries.Inc()
	}
}

func (in *Instruments) cellFinished(wall time.Duration, refs uint64, label, outcome string) {
	if in == nil {
		return
	}
	in.cellsInflight.Add(-1)
	in.cellsCompleted.Inc()
	if outcome != engine.OutcomeOK {
		in.cellsFailed.Inc()
	}
	in.refs.Add(refs)
	in.refsLive.Add(refs)
	in.cellWall.WithLabelValues(in.familyOf(label)).Observe(wall.Seconds())
}

func (in *Instruments) cellExtras(label string, extras []cache.Counter) {
	if in == nil || len(extras) == 0 {
		return
	}
	fam := in.familyOf(label)
	for _, x := range extras {
		in.extras.WithLabelValues(fam, x.Name).Add(x.Value)
	}
}

func (in *Instruments) checkpointHit() {
	if in == nil {
		return
	}
	in.ckptHits.Inc()
}

func (in *Instruments) checkpointWrite(took time.Duration) {
	if in == nil {
		return
	}
	in.ckptWrites.Inc()
	in.ckptSave.Observe(took.Seconds())
}
