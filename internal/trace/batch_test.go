package trace

import (
	"errors"
	"io"
	"math/rand"
	"testing"
)

// mixedRefs builds a deterministic stream mixing all three kinds.
func mixedRefs(seed int64, n int) []Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(rng.Intn(1 << 16)), Kind: Kind(rng.Intn(3))}
	}
	return refs
}

// drainNext pulls the whole stream one reference at a time.
func drainNext(t *testing.T, r Reader) []Ref {
	t.Helper()
	var out []Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ref)
	}
}

// drainBatch pulls the whole stream through ReadBatch with the given
// cycle of destination sizes.
func drainBatch(t *testing.T, r Reader, sizes []int) []Ref {
	t.Helper()
	var out []Ref
	for i := 0; ; i++ {
		dst := make([]Ref, sizes[i%len(sizes)])
		n, err := ReadBatch(r, dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
	}
}

func sameRefs(t *testing.T, got, want []Ref, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d refs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: ref[%d] = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestBatchMatchesNext is the differential battery for every
// batch-capable reader in this package: the ReadBatch sequence must be
// exactly the Next sequence, for ragged destination sizes including 1.
func TestBatchMatchesNext(t *testing.T) {
	refs := mixedRefs(7, 5000)
	sizes := [][]int{{1}, {3, 1, 17}, {256}, {4096}, {1000, 1}}
	wrap := map[string]func([]Ref) Reader{
		"slice":     func(r []Ref) Reader { return NewSliceReader(r) },
		"limit":     func(r []Ref) Reader { return Limit(NewSliceReader(r), 3000) },
		"onlyinstr": func(r []Ref) Reader { return OnlyInstr(NewSliceReader(r)) },
		"onlydata":  func(r []Ref) Reader { return OnlyData(NewSliceReader(r)) },
		"stacked":   func(r []Ref) Reader { return OnlyData(Limit(NewSliceReader(r), 4000)) },
	}
	for name, mk := range wrap {
		want := drainNext(t, mk(refs))
		for _, sz := range sizes {
			sameRefs(t, drainBatch(t, mk(refs), sz), want, name)
		}
	}
}

// TestBatchNextInterleaved mixes the two pull styles on one reader and
// still expects the exact sequence.
func TestBatchNextInterleaved(t *testing.T) {
	refs := mixedRefs(11, 2000)
	want := drainNext(t, OnlyInstr(NewSliceReader(refs)))

	r := OnlyInstr(NewSliceReader(refs))
	var got []Ref
	buf := make([]Ref, 37)
	for {
		ref, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, ref)
		n, err := ReadBatch(r, buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
	}
	sameRefs(t, got, want, "interleaved")
}

// errAfter yields n references then a non-EOF error.
type errAfter struct {
	left int
	err  error
}

func (e *errAfter) Next() (Ref, error) {
	if e.left <= 0 {
		return Ref{}, e.err
	}
	e.left--
	return Ref{Addr: uint64(e.left), Kind: Instr}, nil
}

// TestBatchErrorPropagation checks a mid-stream error surfaces through
// the filter's bulk path without losing the references before it.
func TestBatchErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	r := OnlyInstr(&errAfter{left: 100, err: boom})
	var got []Ref
	buf := make([]Ref, 7)
	var err error
	for err == nil {
		var n int
		n, err = ReadBatch(r, buf)
		got = append(got, buf[:n]...)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d refs before error, want 100", len(got))
	}
}

// nextOnly hides a reader's bulk path, leaving only Next.
type nextOnly struct{ r Reader }

func (n nextOnly) Next() (Ref, error) { return n.r.Next() }

// TestBatchFallback drives a Next-only reader through the ReadBatch
// helper.
func TestBatchFallback(t *testing.T) {
	refs := mixedRefs(13, 500)
	plain := nextOnly{NewSliceReader(refs)}
	if _, ok := Reader(plain).(BatchReader); ok {
		t.Fatal("nextOnly unexpectedly implements BatchReader")
	}
	sameRefs(t, drainBatch(t, plain, []int{64}), refs, "fallback")
}

// TestCollectUsesBatch pins Collect semantics over batch-capable
// readers: exact max cut, shorter streams, and the unbounded path.
func TestCollectUsesBatch(t *testing.T) {
	refs := mixedRefs(17, 3000)
	got, err := Collect(NewSliceReader(refs), 1234)
	if err != nil {
		t.Fatal(err)
	}
	sameRefs(t, got, refs[:1234], "collect max")

	got, err = Collect(NewSliceReader(refs), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRefs(t, got, refs, "collect unbounded")

	got, err = Collect(NewSliceReader(refs[:10]), 50)
	if err != nil {
		t.Fatal(err)
	}
	sameRefs(t, got, refs[:10], "collect short")
}
