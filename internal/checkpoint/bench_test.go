package checkpoint

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cache"
)

// BenchmarkJournalAppend times one Append, which fsyncs the record
// before it returns — the cost a sweep or serve job pays per finished
// cell. Records are shaped like a sweep cell's. It reports µs per
// append.
//
//	go test -run '^$' -bench JournalAppend ./internal/checkpoint
func BenchmarkJournalAppend(b *testing.B) {
	j, err := Open(filepath.Join(b.TempDir(), "bench.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{
		Label:    "gcc/32768/4/dm",
		Stats:    cache.Stats{Accesses: 500_000, Hits: 481_234, Misses: 18_766, Fills: 18_766, Evictions: 17_000},
		Attempts: 1,
		WallNS:   4_000_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Fingerprint = Fingerprint("bench", fmt.Sprint(i))
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/append")
}
