package opt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/spec"
	"repro/internal/trace"
)

// sharedRefs is the length of the streams the Shared tests run: long
// enough that one backward pass outweighs every forward pass's lines.
const sharedRefs = 100_000

// columnSizes are a size column's member sizes, unsorted and with a
// repeat, as a grid may list them.
var columnSizes = []uint64{8 << 10, 1 << 10, 32 << 10, 8 << 10}

func gccMixed(t testing.TB) []trace.Ref {
	b, ok := spec.ByName("gcc")
	if !ok {
		t.Fatal("no suite program gcc")
	}
	return b.Mixed(sharedRefs)
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// passCosts returns the bytes one backward pass over refs allocates and
// the bytes the column's forward passes allocate between them.
func passCosts(refs []trace.Ref, line uint64, lastLine bool) (passBytes, forwardBytes uint64) {
	lineShift, _ := cache.IndexShifts(cache.DM(columnSizes[0], line))
	var p *pass
	passBytes = allocated(func() { p = newPass(refs, lineShift, lastLine) })
	forwardBytes = allocated(func() {
		for _, size := range columnSizes {
			_, setMask := cache.IndexShifts(cache.DM(size, line))
			p.dm(setMask, 0)
		}
	})
	return passBytes, forwardBytes
}

// keptNow returns how many passes ps keeps now.
func (ps *Passes) keptNow() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.kept
}

// TestSharedComputesOnePass runs a column's sharers one after another
// inside a run: each gets exactly SimulateDM's Stats, the first computes
// the pass and the rest reuse it, the column allocates less than one and
// a half passes beyond its forward passes, and the n-th return drops the
// pass. A second run of the same column computes it again.
func TestSharedComputesOnePass(t *testing.T) {
	refs := gccMixed(t)
	const line = 16
	passBytes, forwardBytes := passCosts(refs, line, true)
	var ps Passes
	s := ps.Shared(len(columnSizes))
	for run := 1; run <= 2; run++ {
		end := ps.Run(1)
		var got []cache.Stats
		var first *pass
		bytes := allocated(func() {
			for k, size := range columnSizes {
				got = append(got, s.SimulateDM(refs, cache.DM(size, line), true))
				if k == 0 {
					first = s.pass
				}
				if k < len(columnSizes)-1 && (s.pass == nil || s.pass != first) {
					t.Fatalf("run %d: after sharer %d the pass is %p, want the first sharer's %p", run, k, s.pass, first)
				}
			}
		})
		for k, size := range columnSizes {
			if want := SimulateDM(refs, cache.DM(size, line), true); got[k] != want {
				t.Errorf("run %d, %d B: shared %+v, SimulateDM %+v", run, size, got[k], want)
			}
		}
		if s.pass != nil || ps.keptNow() != 0 {
			t.Errorf("run %d: after the last sharer the pass is %p and %d are kept; want nil and 0", run, s.pass, ps.keptNow())
		}
		if limit := forwardBytes + passBytes*3/2; bytes > limit {
			t.Errorf("run %d: the column allocated %d B; one pass is %d B and its forward passes %d B, so more than one pass was computed",
				run, bytes, passBytes, forwardBytes)
		}
		end()
	}
}

// TestSharedConcurrent starts every sharer at once, as engine workers
// may: the ones that arrive while the first computes wait for its pass,
// so the column still computes one, and the pass is gone once all have
// returned. Run it under -race.
func TestSharedConcurrent(t *testing.T) {
	refs := gccMixed(t)
	const line = 4
	passBytes, forwardBytes := passCosts(refs, line, false)
	var ps Passes
	s := ps.Shared(len(columnSizes))
	defer ps.Run(1)()
	got := make([]cache.Stats, len(columnSizes))
	bytes := allocated(func() {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for k, size := range columnSizes {
			wg.Add(1)
			go func(k int, size uint64) {
				defer wg.Done()
				<-start
				got[k] = s.SimulateDM(refs, cache.DM(size, line), false)
			}(k, size)
		}
		close(start)
		wg.Wait()
	})
	for k, size := range columnSizes {
		if want := SimulateDM(refs, cache.DM(size, line), false); got[k] != want {
			t.Errorf("%d B: shared %+v, SimulateDM %+v", size, got[k], want)
		}
	}
	if s.pass != nil || ps.keptNow() != 0 {
		t.Error("the pass outlived the last sharer")
	}
	if limit := forwardBytes + passBytes*3/2; bytes > limit {
		t.Errorf("the column allocated %d B; one pass is %d B and its forward passes %d B, so more than one pass was computed",
			bytes, passBytes, forwardBytes)
	}
}

// TestSharedOtherStream gives sharers a pass that is not theirs: a copy
// of the stream (another backing array) and a shorter slice of the same
// array. Each computes its own pass and gets SimulateDM's Stats, the
// kept pass stays the first sharer's, and the last return drops it.
func TestSharedOtherStream(t *testing.T) {
	refs := gccMixed(t)
	const size, line = 8 << 10, 16
	geom := cache.DM(size, line)
	others := []struct {
		name string
		refs []trace.Ref
	}{
		{"copy", append([]trace.Ref(nil), refs...)},
		{"prefix", refs[:len(refs)-1]},
	}
	var ps Passes
	s := ps.Shared(1 + len(others) + 1)
	defer ps.Run(1)()
	s.SimulateDM(refs, geom, true)
	kept := s.pass
	passBytes, _ := passCosts(refs, line, true)
	for _, o := range others {
		var got cache.Stats
		bytes := allocated(func() { got = s.SimulateDM(o.refs, geom, true) })
		if want := SimulateDM(o.refs, geom, true); got != want {
			t.Errorf("%s: shared %+v, SimulateDM %+v", o.name, got, want)
		}
		if s.pass != kept {
			t.Errorf("%s: the kept pass was replaced", o.name)
		}
		if bytes < passBytes/2 {
			t.Errorf("%s: allocated %d B, less than half a %d B pass: it did not compute its own", o.name, bytes, passBytes)
		}
	}
	if got, want := s.SimulateDM(refs, cache.DM(2*size, line), true), SimulateDM(refs, cache.DM(2*size, line), true); got != want {
		t.Errorf("last sharer: shared %+v, SimulateDM %+v", got, want)
	}
	if s.pass != nil {
		t.Error("the pass outlived the last sharer")
	}
}

// TestPassesLimit runs many two-size columns the way one worker runs a
// grid's single cells: the first size of every column, then the second.
// The run keeps at most its limit of passes at any step: the first
// columns to run keep theirs until their second sharer returns, the rest
// compute a pass per sharer, and every sharer gets SimulateDM's Stats.
// At limit 0, as outside any run, nothing is kept. Closing a run drops a
// pass whose last sharer never ran.
func TestPassesLimit(t *testing.T) {
	refs := gccMixed(t)
	type column struct {
		line     uint64
		lastLine bool
		s        *Shared
	}
	var ps Passes
	var cols []column
	for _, line := range []uint64{4, 8, 16, 32, 64} {
		for _, lastLine := range []bool{false, true} {
			cols = append(cols, column{line, lastLine, ps.Shared(2)})
		}
	}
	sizes := []uint64{4 << 10, 1 << 10}
	for _, limit := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			end := ps.Run(limit)
			for row, size := range sizes {
				for k, c := range cols {
					geom := cache.DM(size, c.line)
					if got, want := c.s.SimulateDM(refs, geom, c.lastLine), SimulateDM(refs, geom, c.lastLine); got != want {
						t.Errorf("%d B at %d B lines: shared %+v, SimulateDM %+v", size, c.line, got, want)
					}
					if n := ps.keptNow(); n > limit {
						t.Fatalf("%d passes kept, over the limit of %d", n, limit)
					}
					if want := row == 0 && k < limit; (c.s.pass != nil) != want {
						t.Errorf("row %d, column %d: kept %v, want %v", row, k, c.s.pass != nil, want)
					}
				}
			}
			if n := ps.keptNow(); n != 0 {
				t.Errorf("%d passes kept after every column's last sharer returned", n)
			}
			end()
			// In a second run, a column whose second sharer never runs
			// keeps its pass until the run closes.
			end = ps.Run(limit)
			c := cols[0]
			c.s.SimulateDM(refs, cache.DM(sizes[0], c.line), c.lastLine)
			if kept := c.s.pass != nil; kept != (limit > 0) || ps.keptNow() != min(limit, 1) {
				t.Fatalf("after a column's first sharer: kept %v, %d kept in all; want %v, %d", kept, ps.keptNow(), limit > 0, min(limit, 1))
			}
			end()
			if c.s.pass != nil || ps.keptNow() != 0 {
				t.Errorf("a pass outlived its run")
			}
		})
	}
}
