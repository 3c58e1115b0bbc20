package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func refs(addrs ...uint64) []Ref {
	out := make([]Ref, len(addrs))
	for i, a := range addrs {
		out[i] = Ref{Addr: a, Kind: Instr}
	}
	return out
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Instr: "I", Load: "L", Store: "S", Kind(9): "?"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindIsData(t *testing.T) {
	if Instr.IsData() {
		t.Error("Instr.IsData() = true, want false")
	}
	if !Load.IsData() || !Store.IsData() {
		t.Error("Load/Store.IsData() should be true")
	}
}

func TestSliceReader(t *testing.T) {
	in := refs(0, 4, 8)
	r := NewSliceReader(in)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	var got []Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ref)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("got %v, want %v", got, in)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after EOF, err = %v, want io.EOF", err)
	}
	r.Reset()
	if ref, err := r.Next(); err != nil || ref.Addr != 0 {
		t.Errorf("after Reset, got %v, %v", ref, err)
	}
}

func TestCollect(t *testing.T) {
	in := refs(0, 4, 8, 12)
	got, err := Collect(NewSliceReader(in), 0)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Errorf("Collect all = %v, %v", got, err)
	}
	got, err = Collect(NewSliceReader(in), 2)
	if err != nil || len(got) != 2 {
		t.Errorf("Collect(2) = %v, %v, want 2 refs", got, err)
	}
}

func TestLimit(t *testing.T) {
	in := refs(0, 4, 8, 12)
	got, err := Collect(Limit(NewSliceReader(in), 2), 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("Limit(2) yielded %d refs, err %v", len(got), err)
	}
	got, err = Collect(Limit(NewSliceReader(in), 99), 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("Limit(99) yielded %d refs, err %v", len(got), err)
	}
}

func TestFilterKinds(t *testing.T) {
	in := []Ref{{0, Instr}, {4, Load}, {8, Store}, {12, Instr}}
	i, err := Collect(OnlyInstr(NewSliceReader(in)), 0)
	if err != nil || len(i) != 2 {
		t.Errorf("OnlyInstr = %v, %v", i, err)
	}
	d, err := Collect(OnlyData(NewSliceReader(in)), 0)
	if err != nil || len(d) != 2 {
		t.Errorf("OnlyData = %v, %v", d, err)
	}
	if d[0].Kind != Load || d[1].Kind != Store {
		t.Errorf("OnlyData kinds = %v", d)
	}
}

func TestFileRoundTrip(t *testing.T) {
	in := []Ref{{0x1000, Instr}, {0x1004, Instr}, {0x8000, Load}, {0x1008, Instr}, {0x7ff8, Store}}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteAll(w, NewSliceReader(in))
	if err != nil || n != uint64(len(in)) {
		t.Fatalf("WriteAll = %d, %v", n, err)
	}
	fr, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(fr, 0)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Errorf("round trip = %v, %v, want %v", got, err, in)
	}
}

// TestFileErrorAnnotation checks decode failures name the record index
// and byte offset — the information needed to diagnose a corrupt or
// truncated trace file — while staying matchable with errors.Is.
func TestFileErrorAnnotation(t *testing.T) {
	// A tiny first record, then a multi-byte varint we can cut in half.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []Ref{{Addr: 0, Kind: Instr}, {Addr: 1 << 30, Kind: Instr}} {
		if err := w.Write(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("truncated varint", func(t *testing.T) {
		fr, err := NewFileReader(bytes.NewReader(data[:len(data)-1]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Next(); err != nil {
			t.Fatalf("record 0 should decode: %v", err)
		}
		_, err = fr.Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want wrapped io.ErrUnexpectedEOF", err)
		}
		want := "trace: record 1 at offset 0x9: truncated varint"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
		}
	})

	t.Run("bad kind", func(t *testing.T) {
		// A single record whose 2-bit kind field is 3 (out of range).
		bad := append([]byte("DYNEXTR1"), 0x03)
		fr, err := NewFileReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		_, err = fr.Next()
		want := "trace: record 0 at offset 0x8: corrupt record: kind 3"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
		}
	})

	t.Run("varint overflow", func(t *testing.T) {
		// 11 continuation bytes overflow a 64-bit varint.
		bad := append([]byte("DYNEXTR1"), bytes.Repeat([]byte{0xff}, 11)...)
		fr, err := NewFileReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		_, err = fr.Next()
		want := "trace: record 0 at offset 0x8: corrupt record:"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
		}
	})

	t.Run("clean EOF is not annotated", func(t *testing.T) {
		fr, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		refs, err := Collect(fr, 0)
		if err != nil || len(refs) != 2 {
			t.Fatalf("Collect = %d refs, %v", len(refs), err)
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Errorf("at end: err = %v, want bare io.EOF", err)
		}
	})
}

func TestFileBadMagic(t *testing.T) {
	if _, err := NewFileReader(bytes.NewReader([]byte("NOTATRACE"))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewFileReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header should error")
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	// Property: any reference sequence survives a write/read round trip.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Ref, int(n))
		for i := range in {
			// The file format carries 62-bit addresses.
			in[i] = Ref{Addr: rng.Uint64() & AddrMask, Kind: Kind(rng.Intn(3))}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if _, err := WriteAll(w, NewSliceReader(in)); err != nil {
			return false
		}
		fr, err := NewFileReader(&buf)
		if err != nil {
			return false
		}
		got, err := Collect(fr, 0)
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
