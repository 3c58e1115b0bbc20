package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// checkFixture loads the named testdata module and returns the rendered
// diagnostics of a full run of every analyzer.
func checkFixture(t *testing.T, name string) []string {
	t.Helper()
	mod, err := LoadModule(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", name, err)
	}
	diags := Check(mod, Analyzers())
	got := make([]string, 0, len(diags))
	for _, d := range diags {
		got = append(got, d.String())
	}
	return got
}

// wantDiags compares got against the exact expected diagnostic lines.
func wantDiags(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d diagnostics, want %d:\ngot:\n\t%s\nwant:\n\t%s",
			len(got), len(want), strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d]:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestDeterminismFixture pins the determinism analyzer's exact findings:
// wall-clock reads, global math/rand, escaping writes and emits under a
// map range — and that seeded rand, loop-local writes, the allow
// directive, and non-core packages stay clean.
func TestDeterminismFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "determ"), []string{
		`internal/core/core.go:13: [determinism] wall-clock read time.Now in simulation core: results must not depend on time`,
		`internal/core/core.go:16: [determinism] wall-clock read time.Since in simulation core: results must not depend on time`,
		`internal/core/core.go:19: [determinism] unseeded math/rand.Intn in simulation core: use an explicitly seeded *rand.Rand`,
		`internal/core/core.go:28: [determinism] write to "total", which escapes the loop, while ranging over map table: iteration order is nondeterministic`,
		`internal/core/core.go:44: [determinism] fmt.Println while ranging over map table: emit order is nondeterministic`,
	})
}

// TestFSMFixture pins fsm-exhaustive: a switch missing a constant is the
// only finding; full coverage, explicit defaults, non-enum types,
// single-constant types, and non-constant cases pass.
func TestFSMFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "fsm"), []string{
		`a/a.go:21: [fsm-exhaustive] switch on State is not exhaustive: missing C (add the cases or an explicit default)`,
	})
}

// TestCollectorPurityFixture pins collector-purity across Collector
// method bodies and Options hook literals, named hook functions, field
// assignments, and grid.RunOptions' OnCell hook. Goroutine hand-off, select-with-default sends, and
// same-named methods on non-implementing types pass.
func TestCollectorPurityFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "purity"), []string{
		`col/col.go:18: [collector-purity] Collector.CellStarted calls time.Sleep: hooks sit on the scheduling path and must not block`,
		`col/col.go:23: [collector-purity] Collector.CellAttempted panics: telemetry must never change what a run computes`,
		`col/col.go:28: [collector-purity] Collector.CellFinished calls os.Exit: hooks must not terminate the run`,
		`col/col.go:58: [collector-purity] Collector.CellFinished performs a channel send that can block the run (use a select with default)`,
		`col/col.go:72: [collector-purity] Options.OnResult panics: telemetry must never change what a run computes`,
		`col/col.go:77: [collector-purity] Options.OnResult calls time.Sleep: hooks sit on the scheduling path and must not block`,
		`col/col.go:84: [collector-purity] Options.Progress calls os.Exit: hooks must not terminate the run`,
		`col/col.go:93: [collector-purity] Options.OnCell calls os.Exit: hooks must not terminate the run`,
	})
}

// TestCtxSleepFixture pins ctx-sleep: raw time.Sleep is banned under
// internal/engine and internal/checkpoint and nowhere else.
func TestCtxSleepFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "ctxsleep"), []string{
		`internal/checkpoint/c.go:7: [ctx-sleep] time.Sleep in internal/checkpoint: use the context-aware sleepCtx pattern so cancellation is honored`,
		`internal/engine/e.go:7: [ctx-sleep] time.Sleep in internal/engine: use the context-aware sleepCtx pattern so cancellation is honored`,
	})
}

// TestErrFmtFixture pins errfmt: %v/%s on a final error argument is
// flagged (including past a literal %%), while %w, non-error finals,
// dynamic formats, indexed formats, and non-fmt Errorf pass.
func TestErrFmtFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "errfmt"), []string{
		`p/p.go:12: [errfmt] fmt.Errorf formats the final error with %v: use %w so callers keep errors.Is/errors.As`,
		`p/p.go:21: [errfmt] fmt.Errorf formats the final error with %s: use %w so callers keep errors.Is/errors.As`,
		`p/p.go:24: [errfmt] fmt.Errorf formats the final error with %v: use %w so callers keep errors.Is/errors.As`,
	})
}

// TestAllowDirective pins the directive semantics: a valid directive
// suppresses exactly one named check on exactly the next line; wrong
// line or wrong check name leaves the finding AND reports the directive
// itself as stale; unknown, missing, and run-together check names are
// diagnostics of their own.
func TestAllowDirective(t *testing.T) {
	wantDiags(t, checkFixture(t, "allow"), []string{
		`p/p.go:19: [directive] allow directive for "errfmt" suppresses no finding on line 20: stale, remove it`,
		`p/p.go:21: [errfmt] fmt.Errorf formats the final error with %v: use %w so callers keep errors.Is/errors.As`,
		`p/p.go:26: [directive] allow directive for "determinism" suppresses no finding on line 27: stale, remove it`,
		`p/p.go:27: [errfmt] fmt.Errorf formats the final error with %v: use %w so callers keep errors.Is/errors.As`,
		`p/p.go:32: [directive] directive allows unknown check "nosuchcheck" (known: atomic-mix, batch-stats, collector-purity, ctx-sleep, determinism, errfmt, fsm-exhaustive, goroutine-ctx, hotpath-alloc, lock-discipline, obs-metrics, registry)`,
		`p/p.go:38: [directive] directive "//dynexcheck:allow" is missing a check name`,
		`p/p.go:43: [directive] malformed directive "//dynexcheck:allowtypo x": want "//dynexcheck:allow <check> <justification>"`,
	})
}

// TestStaleAllowScopedToSelection pins that stale-allow detection only
// considers directives naming a check that actually ran: narrowing
// -checks must not fabricate stale findings for the others.
func TestStaleAllowScopedToSelection(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "src", "allow"))
	if err != nil {
		t.Fatal(err)
	}
	var fsmOnly []*Analyzer
	for _, a := range Analyzers() {
		if a.Name == "fsm-exhaustive" {
			fsmOnly = append(fsmOnly, a)
		}
	}
	for _, d := range Check(mod, fsmOnly) {
		if d.Check == DirectiveCheck && strings.Contains(d.Message, "stale") {
			t.Errorf("fsm-only run reported stale directive: %s", d)
		}
	}
}

// TestRegistryFixture pins the registry analyzer: direct simulator
// constructors are findings in cmd/ and internal/experiments, while
// test files, the policy package, non-scoped packages, the allowed
// constructors (direct-mapped, stores), and the allow directive pass.
func TestRegistryFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "registry"), []string{
		`cmd/tool/main.go:12: [registry] direct core.Must in cmd/tool: build the simulator from a policy spec (internal/policy) so it stays sweepable and conformance-checked`,
		`cmd/tool/main.go:13: [registry] direct victim.New in cmd/tool: build the simulator from a policy spec (internal/policy) so it stays sweepable and conformance-checked`,
		`cmd/tool/main.go:14: [registry] direct stream.NewExclusion in cmd/tool: build the simulator from a policy spec (internal/policy) so it stays sweepable and conformance-checked`,
		`cmd/tool/main.go:15: [registry] direct cache.MustSetAssoc in cmd/tool: build the simulator from a policy spec (internal/policy) so it stays sweepable and conformance-checked`,
		`internal/experiments/exp.go:14: [registry] direct core.New in internal/experiments: build the simulator from a policy spec (internal/policy) so it stays sweepable and conformance-checked`,
		`internal/experiments/exp.go:15: [registry] direct stream.New in internal/experiments: build the simulator from a policy spec (internal/policy) so it stays sweepable and conformance-checked`,
	})
}

// TestBatchStatsFixture pins the batch-stats analyzer: per-reference
// Stats writes inside the loop of a BatchAccess, a Decode or a *Blocks
// family loop — method calls, field increments, whole-value
// assignments, even on a local delta — are findings, while
// local-counter accumulation, the single post-loop flush, policy-state
// writes, and scalar code pass. The cache package's own loops are
// checked too.
func TestBatchStatsFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "batchstats"), []string{
		`internal/cache/cache.go:45: [batch-stats] write through cache.Stats inside AccessBlocks's loop: accumulate in locals and flush once per call`,
		`internal/core/kernel.go:20: [batch-stats] Stats.Record inside BatchAccess's loop: accumulate in locals and flush once per call`,
		`internal/core/kernel.go:21: [batch-stats] write through cache.Stats inside BatchAccess's loop: accumulate in locals and flush once per call`,
		`internal/core/kernel.go:22: [batch-stats] write through cache.Stats inside BatchAccess's loop: accumulate in locals and flush once per call`,
		`internal/core/kernel.go:23: [batch-stats] Stats.Record inside BatchAccess's loop: accumulate in locals and flush once per call`,
		`internal/core/kernel.go:83: [batch-stats] Stats.Record inside AccessBlocks's loop: accumulate in locals and flush once per call`,
		`internal/core/kernel.go:96: [batch-stats] write through cache.Stats inside lruBlocks's loop: accumulate in locals and flush once per call`,
	})
}

// TestLockDisciplineFixture pins lock-discipline: early-return and
// panic-path leaks report at the Lock with the escaping line; sleeps,
// channel ops, select-without-default, and network IO under a held lock
// report at the blocking point. Defer, per-path unlocks, per-iteration
// lock/unlock, select-with-default, sync.Cond.Wait, and post-unlock
// blocking all pass, and the allow directive suppresses its audited op.
func TestLockDisciplineFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "lockdisc"), []string{
		`p/p.go:19: [lock-discipline] s.mu is locked in LeakOnEarlyReturn but not released on the path exiting at line 21: unlock on every path or defer the unlock`,
		`p/p.go:29: [lock-discipline] s.rw is locked in RLockLeak but not released on the path exiting at line 31: unlock on every path or defer the unlock`,
		`p/p.go:39: [lock-discipline] s.mu is locked in PanicLeak but not released on the path exiting at line 41: unlock on every path or defer the unlock`,
		`p/p.go:49: [lock-discipline] time.Sleep while holding s.mu (locked at line 48): the lock is pinned for as long as this blocks`,
		`p/p.go:57: [lock-discipline] channel send while holding s.mu (locked at line 55): the lock is pinned for as long as this blocks`,
		`p/p.go:64: [lock-discipline] channel receive while holding s.mu (locked at line 62): the lock is pinned for as long as this blocks`,
		`p/p.go:72: [lock-discipline] select without default while holding s.mu (locked at line 70): the lock is pinned for as long as this blocks`,
		`p/p.go:83: [lock-discipline] http.Client.Get while holding s.mu (locked at line 81): the lock is pinned for as long as this blocks`,
	})
}

// TestGoroutineCtxFixture pins goroutine-ctx: an unobservable goroutine
// and an opaque function value are findings inside the scoped packages;
// ctx.Done, WaitGroup.Done, close(done), CancelFunc, and one-level
// same-package follow all pass; out-of-scope packages are ignored; the
// allow directive suppresses its audited goroutine.
func TestGoroutineCtxFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "goroutinectx"), []string{
		`internal/engine/e.go:14: [goroutine-ctx] goroutine observes neither ctx.Done() nor a sync.WaitGroup nor any channel on any path: nothing bounds its lifetime`,
		`internal/engine/e.go:23: [goroutine-ctx] go statement calls a function with no body in this package: cannot verify the goroutine observes ctx.Done, a WaitGroup, or a close-signal channel`,
	})
}

// TestAtomicMixFixture pins atomic-mix: direct reads and writes of a
// field the module accesses atomically — including via a different
// package — are findings; typed atomic wrappers, never-atomic fields,
// and the allow directive pass.
func TestAtomicMixFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "atomicmix"), []string{
		`p/p.go:27: [atomic-mix] field n is accessed with sync/atomic (p/p.go:17) but read or written directly here: every access must use sync/atomic`,
		`p/p.go:32: [atomic-mix] field n is accessed with sync/atomic (p/p.go:17) but read or written directly here: every access must use sync/atomic`,
		`p/p.go:39: [atomic-mix] field N is accessed with sync/atomic (q/q.go:13) but read or written directly here: every access must use sync/atomic`,
	})
}

// TestHotPathAllocFixture pins hotpath-alloc: make, slice/map literals,
// &composite, non-reuse append, interface boxing, string<->[]byte
// conversions, capturing closures, and integer / and % (and /=, %=)
// by a non-constant divisor are findings inside a //dynexcheck:hot
// function; value struct literals, reuse appends, pointer arguments,
// constant and floating-point divisors, shift and mask, unannotated
// functions, and the allow directive pass.
func TestHotPathAllocFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "hotalloc"), []string{
		`p/p.go:24: [hotpath-alloc] make in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:25: [hotpath-alloc] slice literal (allocates backing array) in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:26: [hotpath-alloc] map literal (allocates) in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:27: [hotpath-alloc] address of composite literal (escapes to the heap) in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:28: [hotpath-alloc] append whose result is not reassigned to its first argument in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:29: [hotpath-alloc] passing hotalloc/p.Stats by value to an interface parameter (boxes) in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:30: [hotpath-alloc] string -> []byte conversion (copies) in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:31: [hotpath-alloc] []byte -> string conversion (copies) in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:32: [hotpath-alloc] closure capturing k (closure and capture move to the heap) in Hot, which is marked //dynexcheck:hot: hot paths must be allocation-free`,
		`p/p.go:84: [hotpath-alloc] integer / with a non-constant divisor in DivHot, which is marked //dynexcheck:hot: hot paths index by shift and mask`,
		`p/p.go:85: [hotpath-alloc] integer % with a non-constant divisor in DivHot, which is marked //dynexcheck:hot: hot paths index by shift and mask`,
		`p/p.go:90: [hotpath-alloc] integer /= with a non-constant divisor in DivHot, which is marked //dynexcheck:hot: hot paths index by shift and mask`,
		`p/p.go:91: [hotpath-alloc] integer %= with a non-constant divisor in DivHot, which is marked //dynexcheck:hot: hot paths index by shift and mask`,
	})
}

// TestRealRepoCorpusClean is the zero-finding corpus run: every
// analyzer over the repo's own module, pinned at exactly zero surviving
// findings (audited allows included, none stale).
func TestRealRepoCorpusClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow; run without -short")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(mod, Analyzers())
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// TestCheckParallelDeterministic pins that the concurrent Check produces
// identical output run to run: the per-unit result merge is in unit
// order, not completion order.
func TestCheckParallelDeterministic(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "src", "determ"))
	if err != nil {
		t.Fatal(err)
	}
	first := Check(mod, Analyzers())
	for i := 0; i < 10; i++ {
		again := Check(mod, Analyzers())
		if len(again) != len(first) {
			t.Fatalf("run %d: %d diags, first run had %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d diag[%d] = %+v, first run had %+v", i, j, again[j], first[j])
			}
		}
	}
}

// TestLoadModuleConcurrent loads two fixture modules from concurrent
// goroutines; under -race this pins that the pre-lock go.mod read and
// the shared importer state compose safely.
func TestLoadModuleConcurrent(t *testing.T) {
	names := []string{"fsm", "errfmt", "allow", "ctxsleep"}
	errs := make(chan error, len(names))
	for _, name := range names {
		go func(name string) {
			_, err := LoadModule(filepath.Join("testdata", "src", name))
			errs <- err
		}(name)
	}
	for range names {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestBrokenModule checks the loader degrades gracefully on
// syntactically valid but type-broken code: an error naming the type
// problem, no panic, no diagnostics.
func TestBrokenModule(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "src", "broken"))
	if err == nil {
		t.Fatalf("LoadModule(broken) = %+v, want type error", mod)
	}
	if !strings.Contains(err.Error(), "undefinedIdent") {
		t.Errorf("error %q does not name the undefined identifier", err)
	}
}

// TestLoadModuleMissing checks a directory without go.mod errors cleanly.
func TestLoadModuleMissing(t *testing.T) {
	if _, err := LoadModule(t.TempDir()); err == nil {
		t.Error("LoadModule on an empty dir succeeded, want error")
	}
}

// TestFormatVerbs pins the format scanner used by errfmt.
func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string
		ok     bool
	}{
		{"plain", "", true},
		{"%v", "v", true},
		{"a %d b %s", "ds", true},
		{"%% %v", "v", true},
		{"%+v %#x", "vx", true},
		{"%*d", "*d", true},
		{"%.2f", "f", true},
		{"%[1]v", "", false},
		{"trailing %", "", true},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if got := string(verbs); got != c.want || ok != c.ok {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, got, ok, c.want, c.ok)
		}
	}
}

// TestModulePath pins go.mod module-path extraction.
func TestModulePath(t *testing.T) {
	cases := map[string]string{
		"module repro\n\ngo 1.22\n": "repro",
		"// c\nmodule \"a/b\"\n":    "a/b",
		"go 1.22\n":                 "",
		"module  spaced/path\ngo 1": "spaced/path",
	}
	for in, want := range cases {
		if got := modulePath([]byte(in)); got != want {
			t.Errorf("modulePath(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestObsMetricsFixture pins the obs-metrics analyzer: inline and local
// metric names, duplicate registration of a const name, dynamic label
// slices, and non-constant or zero maxSeries bounds are findings, while
// const names, const label literals (including named label constants),
// and positive constant bounds — plain or arithmetic — pass.
func TestObsMetricsFixture(t *testing.T) {
	wantDiags(t, checkFixture(t, "obsmetrics"), []string{
		`internal/svc/svc.go:31: [obs-metrics] metric name in Registry.NewCounter is not a package-level const: declare the name as a const so the series is greppable and stable`,
		`internal/svc/svc.go:33: [obs-metrics] metric name in Registry.NewGauge is not a package-level const: declare the name as a const so the series is greppable and stable`,
		`internal/svc/svc.go:34: [obs-metrics] metric "svc_jobs_total" is already registered at internal/svc/svc.go:23: register each name exactly once`,
		`internal/svc/svc.go:35: [obs-metrics] metric "svc_queue_depth" is already registered at internal/svc/svc.go:24: register each name exactly once`,
		`internal/svc/svc.go:35: [obs-metrics] labels of Registry.NewCounterVec must be a composite literal of string constants: the label set is part of the metric's declared shape`,
		`internal/svc/svc.go:36: [obs-metrics] metric "svc_wait_seconds" is already registered at internal/svc/svc.go:25: register each name exactly once`,
		`internal/svc/svc.go:36: [obs-metrics] maxSeries of Registry.NewGaugeVec must be a positive constant: the cardinality bound is part of the metric's declared shape`,
		`internal/svc/svc.go:37: [obs-metrics] metric "svc_by_user_total" is already registered at internal/svc/svc.go:26: register each name exactly once`,
		`internal/svc/svc.go:37: [obs-metrics] maxSeries of Registry.NewHistogramVec must be a positive constant: the cardinality bound is part of the metric's declared shape`,
	})
}
