package opt

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/spec"
	"repro/internal/trace"
)

// benchSink keeps the benchmarked calls' results live.
var benchSink cache.Stats

// BenchmarkSimulateDM times the optimal direct-mapped kernel at 32 KiB,
// the size of the per-cell sweep workloads, with the last-line buffer
// set as the registry's auto mode sets it (lines longer than 4 B). It
// reports ns/ref and B/ref (bytes allocated per reference) for 500k-ref
// gcc and tomcatv mixed streams at 4 and 16 B lines — tomcatv has the
// suite's most distinct 4 B blocks, the next-use table's largest load —
// and for a 1M-ref stream of all-distinct blocks, the table's worst
// case.
//
//	go test -run '^$' -bench SimulateDM -benchmem ./internal/opt
func BenchmarkSimulateDM(b *testing.B) {
	mixed := func(name string) []trace.Ref {
		bm, ok := spec.ByName(name)
		if !ok {
			b.Fatalf("no suite program %q", name)
		}
		return bm.Mixed(500_000)
	}
	gcc, tomcatv := mixed("gcc"), mixed("tomcatv")
	distinct := make([]trace.Ref, 1_000_000)
	for i := range distinct {
		distinct[i] = trace.Ref{Addr: uint64(i) * 4}
	}
	for _, c := range []struct {
		name string
		refs []trace.Ref
		line uint64
	}{
		{"gcc/4B", gcc, 4},
		{"gcc/16B", gcc, 16},
		{"tomcatv/4B", tomcatv, 4},
		{"tomcatv/16B", tomcatv, 16},
		{"distinct/4B", distinct, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			geom := cache.DM(32<<10, c.line)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = SimulateDM(c.refs, geom, c.line > 4)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			refs := float64(b.N) * float64(len(c.refs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/refs, "ns/ref")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/refs, "B/ref")
		})
	}
}
