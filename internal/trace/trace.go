// Package trace defines the memory-reference stream abstraction shared by
// every workload generator and cache simulator in this repository.
//
// The paper drove its simulators with pixie traces of the SPEC benchmarks
// captured on a DECstation 3100. We reproduce that interface as a stream of
// Ref values: a reference kind (instruction fetch, data load, data store)
// plus a byte address. Streams are pull-based (Reader), so workloads of
// hundreds of millions of references can be simulated without materializing
// them, while the optimal-replacement simulators (which need future
// knowledge) can Collect a bounded prefix into memory.
package trace

import (
	"errors"
	"io"
)

// Kind classifies a memory reference.
type Kind uint8

const (
	// Instr is an instruction fetch.
	Instr Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Instr:
		return "I"
	case Load:
		return "L"
	case Store:
		return "S"
	default:
		return "?"
	}
}

// IsData reports whether the reference is a data access (load or store).
func (k Kind) IsData() bool { return k == Load || k == Store }

// Ref is a single memory reference.
type Ref struct {
	// Addr is the byte address referenced.
	Addr uint64
	// Kind says whether this is an instruction fetch, load, or store.
	Kind Kind
}

// Reader is a pull-based stream of references. Next returns io.EOF when the
// stream is exhausted; any other error is a malformed stream.
type Reader interface {
	Next() (Ref, error)
}

// BatchReader is the optional bulk fast path of a Reader. ReadBatch
// fills a prefix of dst and returns how many references it wrote, plus
// any error encountered; like io.Reader, it may return n > 0 alongside
// a non-nil error, and the written references are valid either way.
// The delivered sequence is exactly the one repeated Next calls would
// produce — callers may mix the two freely.
type BatchReader interface {
	Reader
	ReadBatch(dst []Ref) (int, error)
}

// ReadBatch fills a prefix of dst from r, using the reader's bulk path
// when it has one and falling back to per-reference Next calls
// otherwise. The return contract is BatchReader's.
//
//dynexcheck:hot
func ReadBatch(r Reader, dst []Ref) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.ReadBatch(dst)
	}
	n := 0
	for n < len(dst) {
		ref, err := r.Next()
		if err != nil {
			return n, err
		}
		dst[n] = ref
		n++
	}
	return n, nil
}

// SliceReader replays an in-memory slice of references.
type SliceReader struct {
	refs []Ref
	pos  int
}

// NewSliceReader returns a Reader over refs. The slice is not copied.
func NewSliceReader(refs []Ref) *SliceReader {
	return &SliceReader{refs: refs}
}

// Next returns the next reference or io.EOF.
func (r *SliceReader) Next() (Ref, error) {
	if r.pos >= len(r.refs) {
		return Ref{}, io.EOF
	}
	ref := r.refs[r.pos]
	r.pos++
	return ref, nil
}

// ReadBatch copies the next run of references into dst.
//
//dynexcheck:hot
func (r *SliceReader) ReadBatch(dst []Ref) (int, error) {
	if r.pos >= len(r.refs) {
		return 0, io.EOF
	}
	n := copy(dst, r.refs[r.pos:])
	r.pos += n
	return n, nil
}

// Reset rewinds the reader to the start of the slice.
func (r *SliceReader) Reset() { r.pos = 0 }

// Len returns the total number of references in the underlying slice.
func (r *SliceReader) Len() int { return len(r.refs) }

// ErrLimit is returned by Collect when the stream exceeds the given bound.
var ErrLimit = errors.New("trace: stream longer than limit")

// Collect drains r into a slice, stopping at max references. If the stream
// ends before max, the shorter slice is returned. max <= 0 collects the
// entire stream. A stream longer than a positive max is NOT an error: the
// prefix is returned (the paper likewise simulates 10M-reference prefixes).
// Batch-capable readers are drained through their bulk path.
func Collect(r Reader, max int) ([]Ref, error) {
	if max > 0 {
		refs := make([]Ref, 0, max)
		for len(refs) < max {
			n, err := ReadBatch(r, refs[len(refs):max])
			refs = refs[:len(refs)+n]
			if err == io.EOF {
				return refs, nil
			}
			if err != nil {
				return refs, err
			}
		}
		return refs, nil
	}
	var refs []Ref
	buf := make([]Ref, 1<<12)
	for {
		n, err := ReadBatch(r, buf)
		refs = append(refs, buf[:n]...)
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return refs, err
		}
	}
}
