// Benchmarks: one testing.B benchmark per paper table/figure, each
// regenerating its experiment on a reduced workload and reporting the key
// measured values as custom metrics, plus micro-benchmarks of the
// simulator hot paths.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=BenchmarkFig05
// Full-size runs are produced by cmd/dynex-experiments instead.
package repro_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/experiments"
)

// benchRefs keeps the per-iteration cost of figure benchmarks moderate;
// cmd/dynex-experiments runs the full-size workloads.
const benchRefs = 120_000

var (
	wlOnce sync.Once
	wl     *experiments.Workloads
)

// workloads builds (once) the shared reduced workload cache.
func workloads(b *testing.B) *experiments.Workloads {
	b.Helper()
	wlOnce.Do(func() {
		wl = experiments.NewWorkloads(experiments.Config{Refs: benchRefs})
		// Pre-generate so figure benchmarks time simulation, not
		// workload synthesis.
		for _, name := range wl.Names() {
			wl.Instr(name)
			wl.Data(name)
			wl.Mixed(name)
		}
	})
	return wl
}

// freshWorkloads builds a reduced workload cache with its instruction
// streams generated, outside the timer. Workloads computes each shared
// sweep (Figure 4's, the §5 hierarchy's, Assoc's) once, so a benchmark
// of a sweep's view needs a fresh cache per iteration or it times a
// memo hit.
func freshWorkloads(b *testing.B) *experiments.Workloads {
	b.StopTimer()
	defer b.StartTimer()
	w := experiments.NewWorkloads(experiments.Config{Refs: benchRefs})
	for _, name := range w.Names() {
		w.Instr(name)
	}
	return w
}

func BenchmarkSec3(b *testing.B) {
	var r experiments.Sec3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Sec3(experiments.Config{})
	}
	b.ReportMetric(100*r.Rows[2].SimDE, "withinloop-DE-miss%")
}

func BenchmarkFig03(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.Fig03Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig03(w)
	}
	b.ReportMetric(100*r.AvgDM, "avg-DM-miss%")
	b.ReportMetric(100*r.AvgDE, "avg-DE-miss%")
	b.ReportMetric(100*r.AvgOPT, "avg-OPT-miss%")
}

func BenchmarkFig04(b *testing.B) {
	var r experiments.Fig04Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig04(freshWorkloads(b))
	}
	if y, ok := r.DE.At(32); ok {
		b.ReportMetric(y, "DE-miss%@32K")
	}
}

func BenchmarkFig05(b *testing.B) {
	var r experiments.Fig05Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig05(freshWorkloads(b))
	}
	x, y := r.DE.PeakY()
	b.ReportMetric(y, "DE-peak-reduction%")
	b.ReportMetric(x, "DE-peak-size-KB")
}

func BenchmarkFig07(b *testing.B) {
	var r experiments.Fig07Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig07(freshWorkloads(b))
	}
	// assume-hit L1 miss rate at the x4 point the paper highlights.
	if y, ok := r.L1[1].At(4); ok {
		b.ReportMetric(y, "assumehit-L1-miss%@x4")
	}
}

func BenchmarkFig08(b *testing.B) {
	var r experiments.Fig08Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig08(freshWorkloads(b))
	}
	if y, ok := r.L2Global[2].At(4); ok { // assume-miss
		b.ReportMetric(y, "assumemiss-L2-global%@x4")
	}
}

func BenchmarkFig09(b *testing.B) {
	var r experiments.Fig09Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig09(freshWorkloads(b))
	}
	base, _ := r.L2Global[0].At(4)
	am, _ := r.L2Global[2].At(4)
	if base > 0 {
		b.ReportMetric(100*(base-am)/base, "assumemiss-L2-improvement%@x4")
	}
}

func BenchmarkFig11(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11(w)
	}
	if y, ok := r.Reduction.At(4); ok {
		b.ReportMetric(y, "DE-reduction%@4B")
	}
	if y, ok := r.Reduction.At(64); ok {
		b.ReportMetric(y, "DE-reduction%@64B")
	}
}

func BenchmarkFig12(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12(w)
	}
	_, y := r.Reduction.PeakY()
	b.ReportMetric(y, "DE-peak-reduction%@16B")
}

func BenchmarkFig13(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13(w)
	}
	b.ReportMetric(r.Efficiency(), "DE-vs-capacity-efficiency")
}

func BenchmarkFig14(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14(w)
	}
	if y, ok := r.Reduction.At(4); ok {
		b.ReportMetric(y, "data-DE-reduction%@4K")
	}
}

func BenchmarkFig15(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig15(w)
	}
	if y, ok := r.Reduction.At(4); ok {
		b.ReportMetric(y, "mixed-DE-reduction%@4K")
	}
}

func BenchmarkAssoc(b *testing.B) {
	var r experiments.AssocResult
	for i := 0; i < b.N; i++ {
		r = experiments.Assoc(freshWorkloads(b))
	}
	if y, ok := r.GapClosed().At(16); ok {
		b.ReportMetric(y, "gap-closed%@16K")
	}
}

func BenchmarkAmat(b *testing.B) {
	var r experiments.AmatResult
	for i := 0; i < b.N; i++ {
		r = experiments.Amat(freshWorkloads(b))
	}
	b.ReportMetric(r.DESpeedupOverDMAt32K, "DE-speedup@32K")
}

func BenchmarkStatic(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.StaticResult
	for i := 0; i < b.N; i++ {
		r = experiments.Static(w)
	}
	b.ReportMetric(100*r.StaticSelf, "static-self-miss%")
	b.ReportMetric(100*r.DE, "DE-miss%")
}

func BenchmarkWrites(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	var r experiments.WritesResult
	for i := 0; i < b.N; i++ {
		r = experiments.Writes(w)
	}
	if len(r.Rows) > 0 {
		b.ReportMetric(r.Rows[0].TrafficPerKR, "wb-traffic/KR")
	}
}

func BenchmarkAblations(b *testing.B) {
	w := workloads(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Ablations(w)
	}
}

// Simulator hot-path micro-benchmarks.

func benchStream(b *testing.B) []repro.Ref {
	b.Helper()
	return workloads(b).Instr("gcc")
}

func BenchmarkDirectMappedAccess(b *testing.B) {
	refs := benchStream(b)
	c := repro.MustDirectMapped(repro.DM(32<<10, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)].Addr)
	}
}

func BenchmarkDynamicExclusionAccess(b *testing.B) {
	refs := benchStream(b)
	c := repro.MustDynamicExclusion(repro.DEConfig{
		Geometry: repro.DM(32<<10, 4),
		Store:    repro.NewHitLastTable(true),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)].Addr)
	}
}

func BenchmarkDynamicExclusionHashedAccess(b *testing.B) {
	refs := benchStream(b)
	store, err := repro.NewHashedHitLast(4*(32<<10)/4, true)
	if err != nil {
		b.Fatal(err)
	}
	c := repro.MustDynamicExclusion(repro.DEConfig{
		Geometry: repro.DM(32<<10, 4),
		Store:    store,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)].Addr)
	}
}

func BenchmarkVictimAccess(b *testing.B) {
	refs := benchStream(b)
	c, err := repro.NewVictimCache(repro.DM(32<<10, 4), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)].Addr)
	}
}

func BenchmarkTwoWayLRUAccess(b *testing.B) {
	refs := benchStream(b)
	c, err := repro.NewSetAssoc(repro.Geometry{Size: 32 << 10, LineSize: 4, Ways: 2}, repro.LRU, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)].Addr)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	refs := benchStream(b)
	sys, err := repro.NewHierarchy(repro.HierarchyConfig{
		L1:       repro.DM(32<<10, 4),
		L2:       repro.DM(128<<10, 4),
		Strategy: repro.AssumeMiss,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Access(refs[i%len(refs)].Addr)
	}
}

func BenchmarkStreamExclusionAccess(b *testing.B) {
	refs := benchStream(b)
	c, err := repro.NewStreamExclusion(repro.DEConfig{
		Geometry: repro.DM(32<<10, 16),
		Store:    repro.NewHitLastTable(true),
	}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)].Addr)
	}
}

func BenchmarkOptimalDM(b *testing.B) {
	refs := benchStream(b)
	geom := repro.DM(32<<10, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repro.OptimalDM(refs, geom, false)
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	bench, ok := repro.Benchmark("gcc")
	if !ok {
		b.Fatal("gcc missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bench.Run()
		if _, err := repro.Collect(r, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}
