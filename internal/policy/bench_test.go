package policy

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/multisim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// The kernel benchmarks below time the policies three ways over the ten
// suite programs' 500k-ref mixed streams (the `cells` benchmark
// workload's streams):
//
//   - BenchmarkCellKernel: one cell of every online registry name on
//     its per-cell kernel (BatchAccess where the simulator has one,
//     Access otherwise), the way the engine runs an ungrouped cell;
//   - BenchmarkColumn: a multisim column kernel at 1, 4 and 10 members;
//   - BenchmarkLockstep: the same 4 and 10 members as per-cell kernels
//     driven chunk by chunk in lockstep, the column kernels' alternative.
//
// All three report time and allocated bytes per reference per member
// cell (ns/ref and B/ref for one cell), construction included, so the
// rows compare directly: a one-member column against the cell kernel at
// 32 KiB, and each column against its lockstep. BenchmarkColumnWorkload
// times the de and dm columns on the `columns` benchmark workload's
// shape instead. The column benchmarks also report visits/member-ref,
// the share of (reference, member) pairs that reached the member: 1 for
// a column without early-outs. A reference the §6 register serves
// reaches the smallest member only.
//
//	go test -run '^$' -bench . ./internal/policy

// benchFamilies are the column-eligible families, as registry names.
var benchFamilies = []string{"dm", "de", "lru2", "fifo2"}

// benchMembers are the size columns the column benchmarks run: 32 KiB
// alone, four sizes around it, and the 1–512 KiB axis of the `columns`
// benchmark workload.
var benchMembers = [][]uint64{
	{32 << 10},
	{16 << 10, 32 << 10, 64 << 10, 128 << 10},
	{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10},
}

// benchStreams synthesizes the ten suite mixed streams once per test
// binary.
var benchStreams = sync.OnceValue(func() [][]trace.Ref {
	var out [][]trace.Ref
	for _, b := range spec.Suite() {
		out = append(out, b.Mixed(500_000))
	}
	return out
})

// workloadStreams synthesizes the `columns` benchmark workload's
// streams once per test binary: gcc's and matrix300's first million
// instruction references.
var workloadStreams = sync.OnceValue(func() [][]trace.Ref {
	var out [][]trace.Ref
	for _, name := range []string{"gcc", "matrix300"} {
		b, ok := spec.ByName(name)
		if !ok {
			panic("no suite benchmark " + name)
		}
		out = append(out, b.Instr(1_000_000))
	}
	return out
})

// benchChunk matches the engine's drive loop batch.
const benchChunk = 1 << 15

// chunks calls f over refs in benchChunk slices.
func chunks(refs []trace.Ref, f func([]trace.Ref)) {
	for len(refs) > 0 {
		n := min(benchChunk, len(refs))
		f(refs[:n])
		refs = refs[n:]
	}
}

// benchPerRef runs sim once per stream per iteration and reports its
// cost per reference per member cell. It returns the number of
// references times members it divided by.
func benchPerRef(b *testing.B, streams [][]trace.Ref, members int, unit string, sim func(refs []trace.Ref)) float64 {
	refs := 0
	for _, s := range streams {
		refs += len(s)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			sim(s)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(refs) * float64(members)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/"+unit)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/"+unit)
	return n
}

// benchSink keeps the benchmarked results live.
var benchSink cache.Stats

// cellNames are the registry names with a per-cell kernel: every name
// but the whole-stream (Direct) families.
func cellNames() []string {
	var out []string
	for _, name := range Names() {
		if fam, _ := familyByName(MustParse(name).Family()); !fam.Direct {
			out = append(out, name)
		}
	}
	return out
}

// BenchmarkCellKernel times each online registry name's per-cell kernel
// at 32 KiB with 4 and 16 B lines.
func BenchmarkCellKernel(b *testing.B) {
	for _, name := range cellNames() {
		for _, line := range []uint64{4, 16} {
			b.Run(fmt.Sprintf("%s/%dB", name, line), func(b *testing.B) {
				geom := cache.DM(32<<10, line)
				benchPerRef(b, benchStreams(), 1, "ref", func(refs []trace.Ref) {
					sim := MustBuild(name, geom)
					chunks(refs, func(c []trace.Ref) { cache.RunRefs(sim, c) })
					benchSink = sim.Stats()
				})
			})
		}
	}
}

// BenchmarkColumn times each family's multisim column kernel at 1, 4
// and 10 members with 4 and 16 B lines.
func BenchmarkColumn(b *testing.B) {
	for _, name := range benchFamilies {
		for _, line := range []uint64{4, 16} {
			for _, sizes := range benchMembers {
				b.Run(fmt.Sprintf("%s/%dB/%d", name, line, len(sizes)), func(b *testing.B) {
					benchColumn(b, benchStreams(), name, line, sizes)
				})
			}
		}
	}
}

// BenchmarkColumnWorkload times the de column, with dm's as a control,
// on the `columns` benchmark workload's shape: gcc's and matrix300's 1M
// instruction references through the 1–512 KiB column at each of its
// line sizes, 4–64 B.
func BenchmarkColumnWorkload(b *testing.B) {
	for _, name := range []string{"de", "dm"} {
		for _, line := range []uint64{4, 8, 16, 32, 64} {
			b.Run(fmt.Sprintf("%s/%dB", name, line), func(b *testing.B) {
				benchColumn(b, workloadStreams(), name, line, benchMembers[2])
			})
		}
	}
}

// benchColumn times name's column at line and sizes over streams, built
// as Spec.Column builds it, and reports its member visits.
func benchColumn(b *testing.B, streams [][]trace.Ref, name string, line uint64, sizes []uint64) {
	sp := MustParse(name)
	var visits uint64
	n := benchPerRef(b, streams, len(sizes), "member-ref", func(refs []trace.Ref) {
		var members []cache.Simulator
		col, err := multisim.New(line, sizes, func(g cache.Geometry) (cache.Simulator, error) {
			sim, err := sp.Build(g)
			members = append(members, sim)
			return sim, err
		})
		if err != nil {
			b.Fatal(err)
		}
		chunks(refs, col.Batch)
		benchSink = col.Outcomes()[0].Stats
		// A member's own Stats count the references that reached it,
		// before Outcomes credits it with the rest.
		for _, m := range members {
			visits += m.Stats().Accesses
		}
	})
	b.ReportMetric(float64(visits)/n, "visits/member-ref")
}

// BenchmarkLockstep times the per-cell kernels of each 4- and 10-member
// column driven in lockstep: every member's simulator takes each chunk
// in turn, as a column kernel without shared work would.
func BenchmarkLockstep(b *testing.B) {
	for _, name := range benchFamilies {
		for _, line := range []uint64{4, 16} {
			for _, sizes := range benchMembers[1:] {
				b.Run(fmt.Sprintf("%s/%dB/%d", name, line, len(sizes)), func(b *testing.B) {
					benchPerRef(b, benchStreams(), len(sizes), "member-ref", func(refs []trace.Ref) {
						sims := make([]cache.Simulator, len(sizes))
						for k, size := range sizes {
							sims[k] = MustBuild(name, cache.DM(size, line))
						}
						chunks(refs, func(c []trace.Ref) {
							for _, sim := range sims {
								cache.RunRefs(sim, c)
							}
						})
						benchSink = sims[0].Stats()
					})
				})
			}
		}
	}
}
