package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/spec"
)

// storeOp is one hit-last store operation: a Lookup, or a Writeback of
// bit.
type storeOp struct {
	block     uint64
	writeback bool
	bit       bool
}

// recordingStore passes every operation through to its TableStore and
// appends it to ops.
type recordingStore struct {
	*TableStore
	ops []storeOp
}

func (r *recordingStore) Lookup(block uint64) bool {
	r.ops = append(r.ops, storeOp{block: block})
	return r.TableStore.Lookup(block)
}

func (r *recordingStore) Writeback(block uint64, hitLast bool) {
	r.ops = append(r.ops, storeOp{block: block, writeback: true, bit: hitLast})
	r.TableStore.Writeback(block, hitLast)
}

// storeSink keeps the replayed lookups live.
var storeSink int

// BenchmarkTableStore times the idealized hit-last store on the
// Lookup/Writeback sequences a per-cell `de` cache issues: the
// registry's default `de` at 32 KiB with 4 and 16 B lines (assume-hit
// cold start, the last-line register on at 16 B), over the ten suite
// programs' 500k-ref mixed streams. The sequences are recorded once
// through Config.Store, then each iteration replays every one against a
// fresh TableStore. It reports ns and B (bytes allocated) per store
// operation (ns/store-op, B/store-op), page allocation included.
//
//	go test -run '^$' -bench TableStore ./internal/core
func BenchmarkTableStore(b *testing.B) {
	for _, line := range []uint64{4, 16} {
		b.Run(fmt.Sprintf("%dB", line), func(b *testing.B) {
			var seqs [][]storeOp
			ops := 0
			for _, prog := range spec.Suite() {
				rec := &recordingStore{TableStore: NewTableStore(true)}
				c := Must(Config{Geometry: cache.DM(32<<10, line), Store: rec, UseLastLine: line > 4})
				cache.RunRefs(c, prog.Mixed(500_000))
				seqs = append(seqs, rec.ops)
				ops += len(rec.ops)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, seq := range seqs {
					t := NewTableStore(true)
					hits := 0
					for _, op := range seq {
						if op.writeback {
							t.Writeback(op.block, op.bit)
						} else if t.Lookup(op.block) {
							hits++
						}
					}
					storeSink += hits
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(ops)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/store-op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/store-op")
		})
	}
}
