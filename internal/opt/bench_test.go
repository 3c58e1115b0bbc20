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
// case. Three sub-benchmarks per stream split the kernel by pass:
// backward/ is the next-use pass alone, forward/ is the 32 KiB decide
// pass over a pass built before the timer starts, and column4/ runs a
// 4–32 KiB size column of four sharers on one kept pass, the shape of
// a serve job's opt cells, counting a reference once per member (ns and
// B per member reference).
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
		geom := cache.DM(32<<10, c.line)
		lastLine := c.line > 4
		lineShift, setMask := cache.IndexShifts(geom)
		b.Run(c.name, func(b *testing.B) {
			perRef(b, len(c.refs), func() { benchSink = SimulateDM(c.refs, geom, lastLine) })
		})
		b.Run("backward/"+c.name, func(b *testing.B) {
			perRef(b, len(c.refs), func() { benchPass = newPass(c.refs, lineShift, lastLine) })
		})
		b.Run("forward/"+c.name, func(b *testing.B) {
			p := newPass(c.refs, lineShift, lastLine)
			perRef(b, len(c.refs), func() { benchSink = p.dm(setMask, 0) })
		})
		b.Run("column4/"+c.name, func(b *testing.B) {
			sizes := []uint64{4 << 10, 8 << 10, 16 << 10, 32 << 10}
			var ps Passes
			s := ps.Shared(len(sizes))
			perRef(b, len(sizes)*len(c.refs), func() {
				end := ps.Run(1)
				for _, size := range sizes {
					benchSink = s.SimulateDM(c.refs, cache.DM(size, c.line), lastLine)
				}
				end()
			})
		})
	}
}

// benchPass keeps the backward sub-benchmark's pass live.
var benchPass *pass

// perRef times b.N calls of op, each over refs references, and reports
// ns/ref and B/ref (bytes allocated per reference).
func perRef(b *testing.B, refs int, op func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(refs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/ref")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/ref")
}
