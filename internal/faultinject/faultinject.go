// Package faultinject provides deterministic fault injection for the
// resilient simulation runtime: a fault-injecting io.Reader for trace
// files (truncation, bit flips, short reads, transient I/O errors), plus
// engine-style stream and simulator wrappers (transient stream failures,
// injected panics, per-access slowdowns).
//
// Every fault is configured by a seed and an explicit schedule, so a
// failing run replays exactly. Transient faults draw from a shared Budget
// so they clear after a configured number of occurrences — the shape the
// engine's retry must survive: an attempt fails, the retry re-creates the
// reader or stream, and the fault is gone.
//
// The package is the substrate for the engine-level fault suite (this
// package's tests, run by `make faults`) and, through Directive, for
// dynex-sweep's -inject flag and dynex-serve's JobSpec.Inject.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Error is an injected fault. It implements the Transient() bool marker
// the engine's default retry classifier (engine.IsTransient) honors, so
// injected transient faults are retried and injected permanent ones are
// not.
type Error struct {
	// Op names the faulted operation ("read", "stream", ...).
	Op string
	// Permanent marks faults that must not be retried.
	Permanent bool
}

func (e *Error) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("faultinject: %s %s fault", kind, e.Op)
}

// Transient reports whether a retry could clear the fault.
func (e *Error) Transient() bool { return !e.Permanent }

// IsInjected reports whether err is (or wraps) an injected fault —
// letting tests distinguish scheduled faults from real failures.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Budget is a goroutine-safe countdown of faults to inject. Sharing one
// Budget between re-created readers or streams models a fault that clears
// after n occurrences.
type Budget struct {
	mu sync.Mutex
	n  int
}

// NewBudget returns a budget of n faults.
func NewBudget(n int) *Budget { return &Budget{n: n} }

// Take consumes one fault, reporting false once the budget is spent.
func (b *Budget) Take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n <= 0 {
		return false
	}
	b.n--
	return true
}

// Remaining returns the faults left to inject.
func (b *Budget) Remaining() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Schedule configures a fault-injecting Reader. The zero value injects
// nothing. All randomness (short-read sizes, which bit flips) derives
// from Seed, so a schedule replays identically.
type Schedule struct {
	// Seed drives the schedule's PRNG.
	Seed int64
	// TruncateAt, when > 0, ends the stream with io.EOF after that many
	// bytes — a file cut off mid-write. Depending on where the cut lands,
	// a trace decoder sees either a silently shorter stream or a
	// truncated-varint error.
	TruncateAt int64
	// FlipBitAt, when > 0, XORs one seed-chosen bit of the byte delivered
	// at that offset — in-place corruption. (Offset 0 cannot be flipped;
	// for a dynex trace that is the file magic anyway.)
	FlipBitAt int64
	// ShortReads caps every Read at a seed-chosen 1–8 bytes, exercising
	// partial-read handling in decoders.
	ShortReads bool
	// FailAt, when > 0, makes the first Read after that many delivered
	// bytes return a transient *Error while Faults still has failures to
	// give.
	FailAt int64
	// Faults bounds FailAt failures; nil means a private one-shot budget.
	// Share one Budget across re-created readers so a retried attempt
	// can succeed.
	Faults *Budget
}

// Reader injects Schedule's faults into an underlying io.Reader.
type Reader struct {
	r    io.Reader
	s    Schedule
	rng  *rand.Rand
	off  int64 // bytes delivered so far
	flip byte  // XOR mask for FlipBitAt
}

// NewReader wraps r with the schedule's faults.
func NewReader(r io.Reader, s Schedule) *Reader {
	rng := rand.New(rand.NewSource(s.Seed))
	if s.FailAt > 0 && s.Faults == nil {
		s.Faults = NewBudget(1)
	}
	return &Reader{r: r, s: s, rng: rng, flip: 1 << rng.Intn(8)}
}

// Offset returns the number of bytes delivered so far.
func (f *Reader) Offset() int64 { return f.off }

// Read delivers from the underlying reader with faults applied.
func (f *Reader) Read(p []byte) (int, error) {
	if f.s.TruncateAt > 0 && f.off >= f.s.TruncateAt {
		return 0, io.EOF
	}
	if f.s.FailAt > 0 && f.off >= f.s.FailAt && f.s.Faults.Take() {
		return 0, &Error{Op: "read"}
	}
	if len(p) == 0 {
		return f.r.Read(p)
	}
	max := len(p)
	if f.s.ShortReads {
		if n := 1 + f.rng.Intn(8); n < max {
			max = n
		}
	}
	if f.s.TruncateAt > 0 && f.off+int64(max) > f.s.TruncateAt {
		max = int(f.s.TruncateAt - f.off)
	}
	n, err := f.r.Read(p[:max])
	if f.s.FlipBitAt > 0 && f.off <= f.s.FlipBitAt && f.s.FlipBitAt < f.off+int64(n) {
		p[f.s.FlipBitAt-f.off] ^= f.flip
	}
	f.off += int64(n)
	return n, err
}

// FlakyStream wraps an engine Cell.Stream closure, failing with a
// transient *Error while budget has faults left (nil: fail once). The
// wrapper is goroutine-safe, so it can be shared between cells the way
// sweep streams are.
func FlakyStream(inner func() ([]trace.Ref, error), budget *Budget) func() ([]trace.Ref, error) {
	if budget == nil {
		budget = NewBudget(1)
	}
	return func() ([]trace.Ref, error) {
		if budget.Take() {
			return nil, &Error{Op: "stream"}
		}
		if inner == nil {
			return nil, nil
		}
		return inner()
	}
}

// PanicSim wraps a simulator to panic on its at-th Access (1-based) —
// the worker-killing failure mode the engine must isolate.
type PanicSim struct {
	inner cache.Simulator
	at    uint64
	n     uint64
}

// NewPanicSim returns sim wrapped to panic at access number at.
func NewPanicSim(inner cache.Simulator, at uint64) *PanicSim {
	return &PanicSim{inner: inner, at: at}
}

// Access panics at the scheduled access and delegates otherwise.
func (p *PanicSim) Access(addr uint64) cache.Result {
	p.n++
	if p.n >= p.at {
		panic(fmt.Sprintf("faultinject: injected panic at access %d", p.n))
	}
	return p.inner.Access(addr)
}

// Stats delegates to the wrapped simulator.
func (p *PanicSim) Stats() cache.Stats { return p.inner.Stats() }

// BatchAccess keeps the wrapper transparent to the batch fast path: the
// panic still fires at exactly the at-th access, even when that access
// lands mid-batch, and every access before it reaches the inner
// simulator — so a resumed or retried run sees the same prefix of work
// a scalar drive would have done.
func (p *PanicSim) BatchAccess(refs []trace.Ref) cache.BatchStats {
	if p.at > p.n+uint64(len(refs)) {
		// The whole batch precedes the scheduled panic.
		bs := batchVia(p.inner, refs)
		p.n += uint64(len(refs))
		return bs
	}
	// The panic lands inside this batch: the prefix before it still
	// reaches the inner simulator, exactly as scalar driving would.
	var prefix uint64
	if p.at > p.n+1 {
		prefix = p.at - p.n - 1
	}
	batchVia(p.inner, refs[:prefix])
	p.n += prefix + 1
	panic(fmt.Sprintf("faultinject: injected panic at access %d", p.n))
}

// batchVia drives inner over refs through its own batch fast path when
// it has one, and otherwise measures a scalar drive with a Stats
// snapshot — the same delta contract cache.BatchSimulator demands.
func batchVia(inner cache.Simulator, refs []trace.Ref) cache.BatchStats {
	if b, ok := inner.(cache.BatchSimulator); ok {
		return b.BatchAccess(refs)
	}
	before := inner.Stats()
	for i := range refs {
		inner.Access(refs[i].Addr)
	}
	return cache.BatchStats{Stats: inner.Stats().Sub(before)}
}

// SlowSim wraps a simulator to sleep before every Access — a runaway
// cell for exercising per-cell deadlines.
type SlowSim struct {
	inner cache.Simulator
	delay time.Duration
}

// NewSlowSim returns sim wrapped with a per-access delay.
func NewSlowSim(inner cache.Simulator, delay time.Duration) *SlowSim {
	return &SlowSim{inner: inner, delay: delay}
}

// Access sleeps, then delegates.
func (s *SlowSim) Access(addr uint64) cache.Result {
	time.Sleep(s.delay)
	return s.inner.Access(addr)
}

// Stats delegates to the wrapped simulator.
func (s *SlowSim) Stats() cache.Stats { return s.inner.Stats() }

// BatchAccess sleeps the batch's total delay up front and delegates,
// so a wrapped batch-capable simulator is slowed down by exactly as
// much as scalar driving would have slowed it.
func (s *SlowSim) BatchAccess(refs []trace.Ref) cache.BatchStats {
	time.Sleep(s.delay * time.Duration(len(refs)))
	return batchVia(s.inner, refs)
}
