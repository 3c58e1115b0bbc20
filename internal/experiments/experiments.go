// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 3–5, 7–9, 11–15, and the §3 pattern analysis), plus
// the ablations DESIGN.md calls out. Each experiment is a function from a
// shared workload cache to a structured result that renders as a text
// table/chart; cmd/dynex-experiments drives them and EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Config tunes an experiment run.
type Config struct {
	// Refs is the number of references collected per benchmark and stream
	// kind (default 1,000,000). The paper used the first 10M references
	// of each benchmark and notes full-stream results are similar; our
	// synthetic workloads are stationary after a few phase cycles, so 1M
	// is the default and -refs raises it.
	Refs int
	// SeedOffset shifts every benchmark's generation seed, producing a
	// structurally similar but distinct workload suite — a sensitivity
	// check that conclusions do not hinge on one particular random CFG.
	SeedOffset int64
	// Workers bounds the engine's simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Collector, when non-nil, receives the engine's execution events
	// for every cell the experiments schedule (cmd/dynex-experiments
	// threads its telemetry collector through here). Purely
	// observational; see internal/engine's Collector.
	Collector engine.Collector
	// Ctx, when non-nil, cancels the simulation engine mid-experiment:
	// workers stop picking up cells and running cells stop at the next
	// chunk boundary (cmd/dynex-experiments threads its signal context
	// through here). A cancelled experiment panics with an error wrapping
	// the context error; the CLI recovers it into a clean exit. Nil means
	// context.Background().
	Ctx context.Context
}

func (c Config) refs() int {
	if c.Refs <= 0 {
		return 1_000_000
	}
	return c.Refs
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Workloads lazily collects and caches the suite's reference streams so
// that figures sharing a stream do not regenerate it. It is goroutine-
// safe: engine workers materialize streams concurrently on first use, and
// each stream is generated exactly once (per-stream sync.Once, with the
// entry map guarded by a mutex).
type Workloads struct {
	cfg   Config
	suite []spec.Benchmark

	mu      sync.Mutex
	streams map[streamKey]*streamEntry
}

// streamKey identifies one cached stream.
type streamKey struct {
	kind string // "instr", "data", or "mixed"
	name string // benchmark name
}

// streamEntry materializes one stream exactly once, without holding the
// Workloads mutex during generation (so independent streams generate in
// parallel while callers of the same stream block only on its Once).
type streamEntry struct {
	once sync.Once
	refs []trace.Ref
}

// NewWorkloads returns an empty cache over the standard suite (or a
// seed-shifted variant when cfg.SeedOffset is nonzero).
func NewWorkloads(cfg Config) *Workloads {
	var suite []spec.Benchmark
	if cfg.SeedOffset == 0 {
		suite = spec.Suite()
	} else {
		for _, p := range spec.SuiteParams() {
			p.Seed += cfg.SeedOffset
			suite = append(suite, spec.MustBuild(p))
		}
	}
	return &Workloads{
		cfg:     cfg,
		suite:   suite,
		streams: map[streamKey]*streamEntry{},
	}
}

// Suite returns the benchmarks.
func (w *Workloads) Suite() []spec.Benchmark { return w.suite }

// Config returns the configuration the workloads were built with.
func (w *Workloads) Config() Config { return w.cfg }

// Names returns the benchmark names in suite order.
func (w *Workloads) Names() []string {
	out := make([]string, len(w.suite))
	for i, b := range w.suite {
		out[i] = b.Name
	}
	return out
}

func (w *Workloads) find(name string) spec.Benchmark {
	for _, b := range w.suite {
		if b.Name == name {
			return b
		}
	}
	panic(fmt.Sprintf("experiments: unknown benchmark %q", name))
}

// stream returns the cached stream for key, generating it (exactly once,
// even under concurrent callers) with gen on first use.
func (w *Workloads) stream(key streamKey, gen func() []trace.Ref) []trace.Ref {
	w.mu.Lock()
	e := w.streams[key]
	if e == nil {
		e = &streamEntry{}
		w.streams[key] = e
	}
	w.mu.Unlock()
	e.once.Do(func() { e.refs = gen() })
	return e.refs
}

// Instr returns (and caches) the benchmark's instruction stream.
func (w *Workloads) Instr(name string) []trace.Ref {
	return w.stream(streamKey{"instr", name}, func() []trace.Ref {
		return w.find(name).Instr(w.cfg.refs())
	})
}

// Data returns (and caches) the benchmark's data stream.
func (w *Workloads) Data(name string) []trace.Ref {
	return w.stream(streamKey{"data", name}, func() []trace.Ref {
		return w.find(name).Data(w.cfg.refs())
	})
}

// Mixed returns (and caches) the benchmark's combined stream.
func (w *Workloads) Mixed(name string) []trace.Ref {
	return w.stream(streamKey{"mixed", name}, func() []trace.Ref {
		return w.find(name).Mixed(w.cfg.refs())
	})
}

// Release drops all cached streams (the per-figure drivers in bench mode
// use it to bound memory). Concurrent stream readers started before the
// call keep their slices; later lookups regenerate.
func (w *Workloads) Release() {
	w.mu.Lock()
	w.streams = map[streamKey]*streamEntry{}
	w.mu.Unlock()
}

// The three simulated policies of the single-level figures. "Dynamic
// exclusion" throughout the single-level experiments means the idealized
// configuration of Figures 3–5: an unbounded hit-last table with assume-
// hit cold start (§5 shows assume-hit is the best realizable default).

// specRate builds the spec's simulator for geom and returns its
// full-stream miss rate. Experiments panic on build errors: every spec
// here is a literal, so a failure is a programming error.
func specRate(sp policy.Spec, refs []trace.Ref, geom cache.Geometry) float64 {
	sim, err := sp.Build(geom)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	m, err := policy.Window(sim, refs, 0)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return m.Stats.MissRate()
}

// dmRate runs a conventional direct-mapped cache.
func dmRate(refs []trace.Ref, geom cache.Geometry) float64 {
	return specRate(policy.MustParse("dm"), refs, geom)
}

// deRate runs dynamic exclusion (ideal table, assume-hit default).
func deRate(refs []trace.Ref, geom cache.Geometry, lastLine bool) float64 {
	return specRate(policy.MustParse("de").WithLastLine(lastLine), refs, geom)
}

// optRate runs the optimal direct-mapped cache with bypass.
func optRate(refs []trace.Ref, geom cache.Geometry, lastLine bool) float64 {
	return specRate(policy.MustParse("opt").WithLastLine(lastLine), refs, geom)
}

// kindOf selects a stream from the workload cache.
type kindOf func(w *Workloads, name string) []trace.Ref

func instrKind(w *Workloads, name string) []trace.Ref { return w.Instr(name) }
func dataKind(w *Workloads, name string) []trace.Ref  { return w.Data(name) }
func mixedKind(w *Workloads, name string) []trace.Ref { return w.Mixed(name) }

// forEachBenchmark runs f for every benchmark across the engine's bounded
// worker pool (simulations over different benchmarks are independent).
// Streams materialize lazily inside the workers — the workload cache is
// goroutine-safe — so generation itself is parallel. f receives the suite
// index so callers write into pre-sized slices.
func forEachBenchmark(w *Workloads, kind kindOf, f func(i int, refs []trace.Ref)) {
	names := w.Names()
	engine.ForEach(w.cfg.ctx(), len(names), w.cfg.workers(), func(i int) {
		col := w.cfg.Collector
		if col == nil {
			f(i, kind(w, names[i]))
			return
		}
		// ForEach bodies bypass the engine's cell bookkeeping, so report
		// the per-benchmark unit of work to the collector here: one
		// synthetic cell per benchmark, its stream length as the ref
		// count (the body may drive several simulators over it).
		refs := kind(w, names[i])
		col.CellStarted(engine.CellStart{Index: i, Label: names[i]})
		start := time.Now()
		f(i, refs)
		wall := time.Since(start)
		col.CellAttempted(engine.CellAttempt{Index: i, Label: names[i], Attempt: 1,
			Wall: wall, Outcome: engine.OutcomeOK})
		col.CellFinished(engine.CellFinish{Index: i, Label: names[i], Wall: wall,
			Attempts: 1, Refs: uint64(len(refs)), Outcome: engine.OutcomeOK})
	})
}

// suiteRates runs one rate function per benchmark concurrently and
// returns the per-benchmark results in suite order.
func suiteRates(w *Workloads, kind kindOf, rate func(refs []trace.Ref) float64) []float64 {
	out := make([]float64, len(w.Names()))
	forEachBenchmark(w, kind, func(i int, refs []trace.Ref) {
		out[i] = rate(refs)
	})
	return out
}

// sweepAverages computes suite-average miss-rate curves for the three
// policies over the given cache sizes at one line size. The paper's
// Figures 4, 11, 12, 14, and 15 are all instances of this sweep. The
// whole benchmark × size × policy grid is one grid.Plan run by one
// engine call, so cells from different sizes execute concurrently, and
// grid.Plan.Partition runs each (benchmark, policy) size column as one
// multisim kernel pass where the policy has one (dm and de here; opt
// needs the whole stream before its first decision and stays per-cell).
// The engine's deterministic result order makes the aggregation
// independent of scheduling.
func sweepAverages(w *Workloads, kind kindOf, sizes []uint64, lineSize uint64, lastLine bool) (dm, de, op metrics.Series) {
	dm.Name, de.Name, op.Name = "direct-mapped", "dynamic exclusion", "optimal direct-mapped"
	names := w.Names()
	sources := make([]grid.Source, len(names))
	for i, name := range names {
		sources[i] = grid.Source{Name: name, Stream: func() ([]trace.Ref, error) { return kind(w, name), nil }}
	}
	// The policies in series order: dm, de, opt.
	pols := []string{
		"dm",
		policy.MustParse("de").WithLastLine(lastLine).String(),
		policy.MustParse("opt").WithLastLine(lastLine).String(),
	}
	plan, err := grid.Spec{Sources: sources, Sizes: sizes, Lines: []uint64{lineSize}, Policies: pols}.Build()
	if err != nil {
		panic("experiments: " + err.Error())
	}
	all := make([]int, len(plan.Cells))
	for i := range all {
		all[i] = i
	}
	results, err := engine.RunGrouped(w.cfg.ctx(), plan.Cells, plan.Partition(all, nil), engine.Options{
		Workers:   w.cfg.workers(),
		Collector: w.cfg.Collector,
	})
	if err != nil {
		// An error here is the caller's cancellation; panic with an error
		// value wrapping it so the CLI's recover can errors.Is it.
		panic(fmt.Errorf("experiments: %w", err))
	}

	// Results are laid out benchmark-major, then size, then policy.
	n := len(names)
	for si, size := range sizes {
		dms, des, ops := make([]float64, n), make([]float64, n), make([]float64, n)
		for bi := 0; bi < n; bi++ {
			base := (bi*len(sizes) + si) * len(pols)
			for p, rates := range [][]float64{dms, des, ops} {
				r := results[base+p]
				if r.Err != nil {
					panic(fmt.Errorf("experiments: %s: %w", r.Label, r.Err))
				}
				rates[bi] = r.Stats.MissRate()
			}
		}
		x := float64(size) / 1024
		dm.Points = append(dm.Points, metrics.Point{X: x, Y: 100 * metrics.Mean(dms)})
		de.Points = append(de.Points, metrics.Point{X: x, Y: 100 * metrics.Mean(des)})
		op.Points = append(op.Points, metrics.Point{X: x, Y: 100 * metrics.Mean(ops)})
	}
	return dm, de, op
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(w *Workloads) fmt.Stringer
}

// Registry returns every experiment in presentation order.
func Registry() []Runner {
	return []Runner{
		{"sec3", "Section 3: analytic vs simulated conflict patterns", func(w *Workloads) fmt.Stringer { return Sec3() }},
		{"fig03", "Figure 3: per-benchmark I-cache miss rate (32KB, 4B lines)", func(w *Workloads) fmt.Stringer { return Fig03(w) }},
		{"fig04", "Figure 4: average I-cache miss rate vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig04(w) }},
		{"fig05", "Figure 5: miss-rate reduction vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig05(w) }},
		{"fig07", "Figure 7: L1 miss rate vs relative L2 size per hit-last strategy", func(w *Workloads) fmt.Stringer { return Fig07(w) }},
		{"fig08", "Figure 8: global L2 miss rate vs L2 size per strategy", func(w *Workloads) fmt.Stringer { return Fig08(w) }},
		{"fig09", "Figure 9: L2 miss-rate improvement vs L2 size", func(w *Workloads) fmt.Stringer { return Fig09(w) }},
		{"fig11", "Figure 11: I-cache miss rate vs line size (32KB)", func(w *Workloads) fmt.Stringer { return Fig11(w) }},
		{"fig12", "Figure 12: improvement vs cache size (16B lines)", func(w *Workloads) fmt.Stringer { return Fig12(w) }},
		{"fig13", "Figure 13: dynamic exclusion vs doubled capacity (16B lines)", func(w *Workloads) fmt.Stringer { return Fig13(w) }},
		{"fig14", "Figure 14: data-cache miss rate vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig14(w) }},
		{"fig15", "Figure 15: combined I+D cache miss rate vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig15(w) }},
		{"ablations", "Ablations: sticky depth, hashed bits, cold start, victim, last-line", func(w *Workloads) fmt.Stringer { return Ablations(w) }},
		{"assoc", "Extra: direct-mapped vs set-associative vs dynamic exclusion", func(w *Workloads) fmt.Stringer { return Assoc(w) }},
		{"amat", "Extra: average memory access time (the §1 hit-time argument)", func(w *Workloads) fmt.Stringer { return Amat(w) }},
		{"static", "Extra: static (profile-guided) exclusion vs dynamic exclusion", func(w *Workloads) fmt.Stringer { return Static(w) }},
		{"writes", "Extra: data-cache write traffic under exclusion", func(w *Workloads) fmt.Stringer { return Writes(w) }},
		{"sensitivity", "Extra: seed sensitivity of the headline reduction curve", func(w *Workloads) fmt.Stringer { return Sensitivity(w) }},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

// standardSizes is the cache-size axis of Figures 4, 5, 12, 14, 15.
func standardSizes() []uint64 {
	return []uint64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
}

// kbLabel formats a size axis value.
func kbLabel(x float64) string { return fmt.Sprintf("%gK", x) }
