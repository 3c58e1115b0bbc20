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

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/patterns"
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

// figurePolicies are the three policies of the single-level figures:
// direct-mapped, dynamic exclusion and the optimal direct-mapped cache,
// the latter two with the §6 last-line buffer on or off. "Dynamic
// exclusion" throughout the single-level experiments means the
// idealized configuration of Figures 3–5: an unbounded hit-last table
// with assume-hit cold start (§5 shows assume-hit is the best
// realizable default).
func figurePolicies(lastLine bool) []string {
	if lastLine {
		return []string{"dm", "de:lastline", "opt:lastline"}
	}
	return []string{"dm", "de:nolastline", "opt:nolastline"}
}

// figureCurves names the figure policies' curves, in the same order.
var figureCurves = []string{"direct-mapped", "dynamic exclusion", "optimal direct-mapped"}

// kindOf selects a stream from the workload cache.
type kindOf func(w *Workloads, name string) []trace.Ref

func instrKind(w *Workloads, name string) []trace.Ref { return w.Instr(name) }
func dataKind(w *Workloads, name string) []trace.Ref  { return w.Data(name) }
func mixedKind(w *Workloads, name string) []trace.Ref { return w.Mixed(name) }

// sources returns the suite's streams of one kind as grid sources, in
// suite order. The workload cache is goroutine-safe, so the engine's
// workers materialize them in parallel.
func (w *Workloads) sources(kind kindOf) []grid.Source {
	names := w.Names()
	out := make([]grid.Source, len(names))
	for i, name := range names {
		out[i] = grid.Source{Name: name, Stream: func() ([]trace.Ref, error) { return kind(w, name), nil }}
	}
	return out
}

// patternSources expands §3 conflict patterns for a direct-mapped cache
// of size bytes into grid sources.
func patternSources(size uint64, specs ...patterns.Spec) []grid.Source {
	out := make([]grid.Source, len(specs))
	for i, sp := range specs {
		refs := sp.Refs(0, size)
		out[i] = grid.Source{Name: sp.Name, Stream: func() ([]trace.Ref, error) { return refs, nil }}
	}
	return out
}

// runGrid runs the (source × size × line × policy) grid as one
// grid.Plan.Run with no journal, on cfg's context, workers and
// collector, and returns every cell's miss rate in grid order:
// source-major, then size, line and policy. It is the package's one way
// to simulate a registry policy: cells of different sizes run
// concurrently, each (source, line, policy) size column runs as one
// multisim pass where the policy has one (DESIGN.md §15), and the
// collector sees one cell per simulation. A cancelled run panics with an
// error wrapping the context error, which the CLI's recover reports as
// an interrupt; every policy here is a literal, so any other error is a
// programming error and panics too.
func runGrid(cfg Config, sources []grid.Source, sizes, lines []uint64, pols ...string) []float64 {
	plan, err := grid.Spec{Sources: sources, Sizes: sizes, Lines: lines, Policies: pols}.Build()
	if err != nil {
		panic("experiments: " + err.Error())
	}
	results, pending := plan.Restore(nil, nil) // no journal: every cell runs
	if err := plan.Run(cfg.ctx(), results, pending, grid.RunOptions{Engine: engine.Options{
		Workers:   cfg.workers(),
		Collector: cfg.Collector,
	}}); err != nil {
		panic(fmt.Errorf("experiments: %w", err))
	}
	rates := make([]float64, len(results))
	for i, r := range results {
		if r.Err != nil {
			panic(fmt.Errorf("experiments: %s: %w", r.Label, r.Err))
		}
		rates[i] = r.Stats.MissRate()
	}
	return rates
}

// means averages runGrid rates over their n sources: means[k] is the
// mean of the k-th (size, line, policy) cell across the sources, taken
// in source order.
func means(rates []float64, n int) []float64 {
	per := len(rates) / n
	out := make([]float64, per)
	col := make([]float64, n)
	for k := range out {
		for s := range col {
			col[s] = rates[s*per+k]
		}
		out[k] = metrics.Mean(col)
	}
	return out
}

// suiteMeans runs the grid over the suite's streams of one kind and
// returns each (size, line, policy) cell's suite-average miss rate.
func suiteMeans(w *Workloads, kind kindOf, sizes, lines []uint64, pols ...string) []float64 {
	return means(runGrid(w.cfg, w.sources(kind), sizes, lines, pols...), len(w.suite))
}

// curves splits suite means laid out point-major over len(names)
// policies into one curve per policy, in percent, at the points xs.
func curves(avg, xs []float64, names ...string) []metrics.Series {
	out := make([]metrics.Series, len(names))
	for p, name := range names {
		out[p].Name = name
		for i, x := range xs {
			out[p].Points = append(out[p].Points, metrics.Point{X: x, Y: 100 * avg[i*len(names)+p]})
		}
	}
	return out
}

// kb returns cache sizes as a kilobyte axis.
func kb(sizes []uint64) []float64 {
	xs := make([]float64, len(sizes))
	for i, size := range sizes {
		xs[i] = float64(size) / 1024
	}
	return xs
}

// forEachBenchmark runs f for every benchmark across the engine's bounded
// worker pool, for the simulators the policy registry does not build
// (the §5 hierarchy, the write-policy wrappers and profile-trained static
// exclusion). Streams materialize lazily inside the workers, so
// generation itself is parallel. f receives the suite index so callers
// write into pre-sized slices.
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

// sweepAverages computes suite-average miss-rate curves for the three
// figure policies over the given cache sizes at one line size: Figures
// 4, 5, 12, 14 and 15 are all instances of this sweep, and it is a view
// of one runGrid, whose deterministic result order makes the
// aggregation independent of scheduling.
func sweepAverages(w *Workloads, kind kindOf, sizes []uint64, lineSize uint64, lastLine bool) (dm, de, op metrics.Series) {
	avg := suiteMeans(w, kind, sizes, []uint64{lineSize}, figurePolicies(lastLine)...)
	c := curves(avg, kb(sizes), figureCurves...)
	return c[0], c[1], c[2]
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
		{"sec3", "Section 3: analytic vs simulated conflict patterns", func(w *Workloads) fmt.Stringer { return Sec3(w.Config()) }},
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
