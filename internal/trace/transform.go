package trace

import "io"

// Limit returns a Reader that yields at most n references from r.
func Limit(r Reader, n int) Reader {
	return &limitReader{r: r, left: n}
}

type limitReader struct {
	r    Reader
	left int
}

func (l *limitReader) Next() (Ref, error) {
	if l.left <= 0 {
		return Ref{}, io.EOF
	}
	ref, err := l.r.Next()
	if err != nil {
		return ref, err
	}
	l.left--
	return ref, nil
}

// ReadBatch delivers up to the remaining budget through the wrapped
// reader's bulk path.
//
//dynexcheck:hot
func (l *limitReader) ReadBatch(dst []Ref) (int, error) {
	if l.left <= 0 {
		return 0, io.EOF
	}
	if len(dst) > l.left {
		dst = dst[:l.left]
	}
	n, err := ReadBatch(l.r, dst)
	l.left -= n
	return n, err
}

// kindFilter passes references whose kind is in the mask. It is
// batch-capable: ReadBatch pulls bulk runs from the wrapped reader and
// compacts the survivors, so a filtered stream over a BatchReader costs
// no per-reference interface calls.
type kindFilter struct {
	r    Reader
	mask [3]bool
	buf  []Ref // survivors not yet delivered sit in buf[pos:end]
	pos  int
	end  int
	err  error // error seen while survivors were still buffered
}

func (f *kindFilter) Next() (Ref, error) {
	if f.pos < f.end {
		ref := f.buf[f.pos]
		f.pos++
		return ref, nil
	}
	if f.err != nil {
		err := f.err
		f.err = nil
		return Ref{}, err
	}
	for {
		ref, err := f.r.Next()
		if err != nil {
			return ref, err
		}
		if int(ref.Kind) < len(f.mask) && f.mask[ref.Kind] {
			return ref, nil
		}
	}
}

//dynexcheck:hot
func (f *kindFilter) ReadBatch(dst []Ref) (int, error) {
	n := copy(dst, f.buf[f.pos:f.end])
	f.pos += n
	if f.pos < f.end {
		return n, nil
	}
	if f.err != nil {
		err := f.err
		f.err = nil
		return n, err
	}
	if f.buf == nil {
		//dynexcheck:allow hotpath-alloc one-time lazy buffer, reused for the stream's lifetime; amortized to zero per ref
		f.buf = make([]Ref, 1<<12)
	}
	for n < len(dst) {
		m, err := ReadBatch(f.r, f.buf)
		w := 0
		for _, ref := range f.buf[:m] {
			if int(ref.Kind) < len(f.mask) && f.mask[ref.Kind] {
				f.buf[w] = ref
				w++
			}
		}
		k := copy(dst[n:], f.buf[:w])
		n += k
		if k < w {
			// dst is full with survivors left over; hold them (and any
			// error) for the next call.
			f.pos, f.end, f.err = k, w, err
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// OnlyKind returns a Reader passing only references of kind k.
func OnlyKind(r Reader, k Kind) Reader {
	var mask [3]bool
	mask[k] = true
	return &kindFilter{r: r, mask: mask}
}

// OnlyInstr returns a Reader passing only instruction fetches.
func OnlyInstr(r Reader) Reader { return OnlyKind(r, Instr) }

// OnlyData returns a Reader passing only loads and stores.
func OnlyData(r Reader) Reader {
	return &kindFilter{r: r, mask: [3]bool{Load: true, Store: true}}
}
