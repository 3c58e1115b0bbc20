package trace_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// benchSink keeps the benchmarked results live.
var benchSink []trace.Ref

// BenchmarkFileReader times serve's replay path for uploaded traces:
// decoding a 500k-ref gcc mixed trace file through NewFileReader and
// Collect. It reports ns/ref and B/ref (bytes allocated per reference,
// the collected slice included).
//
//	go test -run '^$' -bench FileReader ./internal/trace
func BenchmarkFileReader(b *testing.B) {
	gcc, ok := spec.ByName("gcc")
	if !ok {
		b.Fatal("no suite program gcc")
	}
	refs := gcc.Mixed(500_000)
	var file bytes.Buffer
	w, err := trace.NewWriter(&file)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := file.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := trace.NewFileReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if benchSink, err = trace.Collect(fr, len(refs)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if len(benchSink) != len(refs) {
		b.Fatalf("decoded %d refs, want %d", len(benchSink), len(refs))
	}
	n := float64(b.N) * float64(len(refs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/ref")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/ref")
}
