package opt

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/spec"
	"repro/internal/trace"
)

// diffRefs is the stream length of the differential test: long enough
// for every suite program to conflict at the small sizes, short enough
// to keep the whole grid to a few seconds.
const diffRefs = 8000

// suiteStreams returns every suite program's instruction, data and
// mixed streams of n references, named program/kind.
func suiteStreams(n int) (names []string, streams [][]trace.Ref) {
	for _, b := range spec.Suite() {
		names = append(names, b.Name+"/instr", b.Name+"/data", b.Name+"/mixed")
		streams = append(streams, b.Instr(n), b.Data(n), b.Mixed(n))
	}
	return names, streams
}

// TestSimulateDMMatchesReference requires the production kernel to
// reproduce the map-based reference model's Stats exactly over the
// suite programs × instr/data/mixed, sizes 1–512 KiB, lines 4/16/64 B,
// last-line on and off, and warmups of zero, mid-stream and near the
// end.
func TestSimulateDMMatchesReference(t *testing.T) {
	names, streams := suiteStreams(diffRefs)
	warmups := []int{0, diffRefs / 2, diffRefs - 7}
	for si, refs := range streams {
		for size := uint64(1 << 10); size <= 512<<10; size <<= 1 {
			for _, line := range []uint64{4, 16, 64} {
				geom := cache.DM(size, line)
				for _, lastLine := range []bool{false, true} {
					for _, w := range warmups {
						got := SimulateDMWindow(refs, geom, lastLine, w)
						want := refSimulateDMWindow(refs, geom, lastLine, w)
						if got != want {
							t.Fatalf("%s %v lastLine=%v warmup=%d:\n got %+v\nwant %+v",
								names[si], geom, lastLine, w, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSimulateSetAssocMatchesReference does the same for the
// set-associative simulator: 2- and 4-way caches across the size range
// and fully associative ones where the per-miss way scan stays cheap.
func TestSimulateSetAssocMatchesReference(t *testing.T) {
	names, streams := suiteStreams(diffRefs / 2)
	var geoms []cache.Geometry
	for _, line := range []uint64{4, 16, 64} {
		for size := uint64(1 << 10); size <= 512<<10; size <<= 3 {
			geoms = append(geoms, cache.Geometry{Size: size, LineSize: line, Ways: 2},
				cache.Geometry{Size: size, LineSize: line, Ways: 4})
		}
		geoms = append(geoms, cache.Geometry{Size: 1 << 10, LineSize: line, Ways: 0})
	}
	for si, refs := range streams {
		for _, g := range geoms {
			if got, want := SimulateSetAssoc(refs, g), refSimulateSetAssoc(refs, g); got != want {
				t.Fatalf("%s %v:\n got %+v\nwant %+v", names[si], g, got, want)
			}
		}
	}
}

// FuzzSimulateDM draws streams from small block alphabets and checks
// the kernel against the reference model, the Stats identities, and
// the optimality bound against a conventional direct-mapped cache. The
// alphabet always holds block 0 and, at 1-byte lines, block 2^64-1:
// the keys an empty-slot sentinel in the next-use table would collide
// with.
//
// Input layout: data[0] picks the line (1–64 B), data[1] the cache
// size in lines, data[2] the last-line buffer and the warmup, data[3]
// the alphabet size; each later byte is one reference.
func FuzzSimulateDM(f *testing.F) {
	f.Add([]byte{0, 2, 0, 4, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 1, 3, 0, 1, 0, 2, 2, 1, 0})
	f.Add([]byte{2, 3, 0x81, 8, 7, 6, 5, 4, 4, 4, 3, 2, 1, 0})
	f.Add([]byte{6, 1, 0x40, 16, 1, 1, 1, 9, 9, 0, 15, 15, 0})
	// Block 2^64-1 (alphabet index 1) against a block of the same set
	// (index 15) at 1-byte lines: the optimal cache keeps 2^64-1 only if
	// the table tracks its next use.
	f.Add([]byte{0, 1, 0, 14, 1, 15, 1, 15, 1, 15, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		line := uint64(1) << (data[0] % 7)
		geom := cache.DM(line<<(data[1]%6), line)
		lastLine := data[2]&0x80 != 0
		alphabet := fuzzAlphabet(line, 2+int(data[3]%30))
		refs := make([]trace.Ref, len(data)-4)
		for i, b := range data[4:] {
			refs[i] = trace.Ref{Addr: alphabet[int(b)%len(alphabet)]}
		}
		warmup := int(data[2]&0x7f) % (len(refs) + 1)

		got := SimulateDMWindow(refs, geom, lastLine, warmup)
		if want := refSimulateDMWindow(refs, geom, lastLine, warmup); got != want {
			t.Fatalf("%v lastLine=%v warmup=%d:\n got %+v\nwant %+v", geom, lastLine, warmup, got, want)
		}
		if got.Accesses != uint64(len(refs)-warmup) || got.Hits+got.Misses != got.Accesses ||
			got.Misses != got.Fills+got.Bypasses || got.Evictions > got.Fills {
			t.Fatalf("%v lastLine=%v warmup=%d: inconsistent stats %+v over %d refs",
				geom, lastLine, warmup, got, len(refs))
		}
		if warmup == 0 {
			dm := cache.MustDirectMapped(geom)
			cache.RunRefs(dm, refs)
			if got.Misses > dm.Stats().Misses {
				t.Fatalf("%v lastLine=%v: optimal misses %d exceed direct-mapped %d",
					geom, lastLine, got.Misses, dm.Stats().Misses)
			}
		}
	})
}

// fuzzAlphabet returns the first byte addresses of k blocks of the
// given line size that crowd a few sets: block 0, the highest block,
// and blocks spaced by multiples of 64 (a multiple of every fuzzed set
// count) plus an offset of 0–2, every fifth one counted down from the
// top.
func fuzzAlphabet(line uint64, k int) []uint64 {
	top := math.MaxUint64 / line
	out := []uint64{0, top * line}
	for i := 2; i < k; i++ {
		block := uint64(i/3)*64 + uint64(i%3)
		if i%5 == 0 {
			block = top - block
		}
		out = append(out, block*line)
	}
	return out
}
