// Package opt implements optimal (Belady-style) replacement simulators.
//
// The paper's yardstick is the "optimal direct-mapped cache": blocks are
// placed exactly where a direct-mapped cache would place them, but the
// replacement decision uses future knowledge — on a conflict the cache
// retains whichever of the two blocks is referenced sooner, and a block
// may be passed to the CPU without ever being stored (bypass). Belady
// [Bel66] proved the analogous policy optimal for page replacement; per
// cache set the same exchange argument applies.
//
// Because these simulators need the future, they run over a materialized
// reference slice in two passes: a backward pass computing each
// reference's next use, then a forward simulation. The backward pass
// depends only on the stream, the line size and the last-line setting,
// never on the cache size or associativity, so both simulators run the
// same one, and Shared lends one pass to every cell of a size column.
package opt

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/trace"
)

// MaxRefs is the longest stream the simulators accept: stream positions
// are int32, which halves the next-use array against int64.
const MaxRefs = math.MaxInt32

const (
	// never is the next use of a reference whose block is not referenced
	// again. It is above every position of a stream of at most MaxRefs.
	never = math.MaxInt32
	// inRun marks a reference the §6 last-line buffer serves: it repeats
	// the block of the reference before it.
	inRun = -1
)

// CheckLen reports whether a stream of n references fits the
// simulators' int32 positions. The simulators panic on a longer stream;
// callers that take streams from outside check first.
func CheckLen(n int) error {
	if n > MaxRefs {
		return fmt.Errorf("opt: stream of %d references exceeds the %d-reference limit", n, MaxRefs)
	}
	return nil
}

// SimulateDM runs the optimal direct-mapped cache with bypass over refs.
// If useLastLine is true the simulator also gets the §6 last-line buffer:
// consecutive references to the most recently fetched line hit without a
// replacement decision, matching what the dynamic exclusion hardware is
// given in the long-line experiments.
func SimulateDM(refs []trace.Ref, geom cache.Geometry, useLastLine bool) cache.Stats {
	return SimulateDMWindow(refs, geom, useLastLine, 0)
}

// SimulateDMWindow is SimulateDM restricted to a measurement window: the
// replacement decisions still use the whole stream's future knowledge,
// but only the outcomes of refs[warmup:] are counted. That is the optimal
// policy's steady-state window, directly comparable to the online
// policies' warmup-subtracted Stats (cache.Stats.Sub after a warmup
// snapshot). warmup 0 reproduces SimulateDM exactly.
func SimulateDMWindow(refs []trace.Ref, geom cache.Geometry, useLastLine bool, warmup int) cache.Stats {
	geom.Ways = 1
	lineShift, setMask := shape(geom, len(refs))
	return newPass(refs, lineShift, useLastLine).dm(setMask, warmup)
}

// SimulateSetAssoc runs Belady-optimal replacement with bypass on an
// n-way set-associative cache (Ways = 0 means fully associative). Used by
// the related-work comparisons.
func SimulateSetAssoc(refs []trace.Ref, geom cache.Geometry) cache.Stats {
	lineShift, setMask := shape(geom, len(refs))
	nways := geom.WaysPerSet()
	ways := make([]resident, int(setMask+1)*nways)
	return decideSetAssoc(newPass(refs, lineShift, false), ways, nways, setMask).stats()
}

// Passes is where one grid's Shared values keep their backward passes,
// and it bounds how many they keep at once. Run sets that limit for one
// run of the grid; a sharer that finds it reached computes a pass of its
// own and keeps nothing. Outside a run the limit is zero, so every
// sharer computes its own pass.
type Passes struct {
	mu     sync.Mutex
	limit  int // passes the Shared values may keep at once
	kept   int // passes they keep now
	shared []*Shared
}

// Shared returns a Shared for the given number of sharers, each of which
// calls SimulateDM once per run, that keeps its pass in ps.
func (ps *Passes) Shared(sharers int) *Shared {
	s := &Shared{ps: ps, sharers: sharers, left: sharers}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.shared = append(ps.shared, s)
	return s
}

// Run opens a run in which ps keeps at most limit passes at once and
// returns the function that closes it. Opening and closing both drop
// every kept pass and restart every Shared's count of returns, so no
// pass outlives its run, not even one whose last sharer never ran (a
// cell restored from a journal, or one a fault injection replaced).
// Runs of one Passes must not overlap: results stay exact, but one
// run's close drops the other's passes.
func (ps *Passes) Run(limit int) (end func()) {
	ps.reset(limit)
	return func() { ps.reset(0) }
}

func (ps *Passes) reset(limit int) {
	ps.mu.Lock()
	shared := ps.shared
	ps.limit, ps.kept = limit, 0
	ps.mu.Unlock()
	for _, s := range shared {
		s.mu.Lock()
		s.pass, s.left = nil, s.sharers
		s.mu.Unlock()
	}
}

// take books one more kept pass if the limit allows it.
func (ps *Passes) take() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.kept >= ps.limit {
		return false
	}
	ps.kept++
	return true
}

func (ps *Passes) give() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.kept--
}

// Shared lends one backward pass to a fixed number of sharers: the
// optimal direct-mapped cells of one size column, which run over one
// stream at one line size and last-line setting and differ only in
// their set count. The first sharer to run computes the pass and, if
// another sharer is still due and its Passes' limit allows, keeps it; a
// sharer that arrives meanwhile waits for it. The last sharer to return
// drops it. A sharer that finds no kept pass, or one built from another
// stream (by backing array and length), computes its own. Sharing
// changes no result: a pass is a function of its stream, line size and
// last-line setting alone.
type Shared struct {
	ps      *Passes
	sharers int

	mu   sync.Mutex
	pass *pass // the kept pass, or nil
	left int   // returns still due in this run
}

// SimulateDM is SimulateDM for one sharer, run on the kept pass.
func (s *Shared) SimulateDM(refs []trace.Ref, geom cache.Geometry, useLastLine bool) cache.Stats {
	defer s.release()
	geom.Ways = 1
	lineShift, setMask := shape(geom, len(refs))
	p := s.acquire(refs, lineShift, useLastLine)
	if p == nil {
		p = newPass(refs, lineShift, useLastLine)
	}
	return p.dm(setMask, 0)
}

// acquire returns the kept pass, computing and keeping it first if there
// is none, another sharer is still due and the limit allows; or nil, and
// the sharer computes its own.
func (s *Shared) acquire(refs []trace.Ref, lineShift uint, lastLine bool) *pass {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pass == nil && s.left > 1 && s.ps.take() {
		s.pass = newPass(refs, lineShift, lastLine)
	}
	if s.pass == nil || !s.pass.of(refs) {
		return nil
	}
	return s.pass
}

// release books one sharer's return and drops the kept pass at the last.
func (s *Shared) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left--; s.left == 0 && s.pass != nil {
		s.pass = nil
		s.ps.give()
	}
}

// MissRateDM is a convenience wrapper returning just the miss rate of the
// optimal direct-mapped cache.
func MissRateDM(refs []trace.Ref, geom cache.Geometry, useLastLine bool) float64 {
	return SimulateDM(refs, geom, useLastLine).MissRate()
}

// shape validates geom and the stream length n, panicking on either,
// and returns the address math both passes use (cache.IndexShifts):
// block = addr >> lineShift and set = block & setMask.
func shape(geom cache.Geometry, n int) (lineShift uint, setMask uint64) {
	if err := geom.Validate(); err != nil {
		panic("opt: " + err.Error())
	}
	if err := CheckLen(n); err != nil {
		panic(err.Error())
	}
	return cache.IndexShifts(geom)
}

// pass is the backward pass over one stream at one line size, with or
// without the §6 last-line collapse: the stream and every reference's
// next use. The forward passes, decideDM and decideSetAssoc, run over
// it. Memory is 4 B per reference; nextUse's table is gone once the
// pass is built.
type pass struct {
	refs      []trace.Ref
	next      []int32
	lineShift uint
}

func newPass(refs []trace.Ref, lineShift uint, lastLine bool) *pass {
	return &pass{refs: refs, next: nextUse(refs, lineShift, lastLine), lineShift: lineShift}
}

// of reports whether p was built from refs: the same backing array and
// length. A Shared's sharers all run at its line size and last-line
// setting, so the stream is all that can differ.
func (p *pass) of(refs []trace.Ref) bool {
	return len(p.refs) == len(refs) && (len(refs) == 0 || &p.refs[0] == &refs[0])
}

// dm runs the optimal direct-mapped cache of setMask+1 sets over the
// pass and counts the outcomes of the references from warmup on.
func (p *pass) dm(setMask uint64, warmup int) cache.Stats {
	warmup = max(0, min(warmup, len(p.refs)))
	lines := make([]resident, setMask+1)
	decideDM(p, 0, warmup, lines, setMask)
	return decideDM(p, warmup, len(p.refs), lines, setMask).stats()
}

// nextUse is the backward pass: for every position i it returns the
// position of the next reference to refs[i]'s block, or never.
//
// With lastLine it also performs the §6 last-line collapse in place. A
// reference to the same block as the one before it is a buffer hit with
// no replacement decision: it is marked inRun and never enters the
// table, so each run head's next use is the next run head of its block,
// by original position. Original positions keep the order the collapsed
// stream's indices would have, so every comparison of next uses (ties
// included) decides as it would over a collapsed copy.
func nextUse(refs []trace.Ref, lineShift uint, lastLine bool) []int32 {
	next := make([]int32, len(refs))
	t := newLastSeen()
	for i := len(refs) - 1; i >= 0; i-- {
		b := refs[i].Addr >> lineShift
		if lastLine && i > 0 && refs[i-1].Addr>>lineShift == b {
			next[i] = inRun
			continue
		}
		next[i] = t.swap(b, int32(i))
	}
	return next
}

// fibMul is 2^64 divided by the golden ratio. Multiplying by it and
// keeping the top bits spreads consecutive block numbers (code runs,
// array walks) evenly over the table.
const fibMul = 0x9E3779B97F4A7C15

// minSlotsLog2 sizes a fresh table: 1024 slots, 16 KiB.
const minSlotsLog2 = 10

// lastSeen maps each block to the position the backward pass last saw
// it at: a flat linear-probing table with power-of-two slots, a
// multiplicative hash, and at most three quarters of the slots in use.
// It holds one slot per distinct block, so its size is bounded by the
// stream length.
type lastSeen struct {
	slots []seenSlot
	shift uint // 64 - log2(len(slots)); the hash keeps the top bits
	used  int
}

// seenSlot packs a block with its position. The position is stored plus
// one so that the zero slot is the empty one; no block value is
// reserved, so block 0 and block 2^64-1 are keys like any other.
type seenSlot struct {
	block uint64
	pos1  int32
}

func newLastSeen() lastSeen {
	return lastSeen{slots: make([]seenSlot, 1<<minSlotsLog2), shift: 64 - minSlotsLog2}
}

// swap records pos as block's position and returns the position it
// replaces, or never at the block's first sighting.
func (t *lastSeen) swap(block uint64, pos int32) int32 {
	mask := uint64(len(t.slots) - 1)
	for h := block * fibMul >> t.shift; ; h = (h + 1) & mask {
		s := &t.slots[h]
		if s.pos1 == 0 {
			*s = seenSlot{block: block, pos1: pos + 1}
			if t.used++; 4*t.used > 3*len(t.slots) {
				t.grow()
			}
			return never
		}
		if s.block == block {
			prev := s.pos1 - 1
			s.pos1 = pos + 1
			return prev
		}
	}
}

// grow doubles the table and reinserts every block.
func (t *lastSeen) grow() {
	old := t.slots
	t.slots = make([]seenSlot, 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.pos1 == 0 {
			continue
		}
		h := s.block * fibMul >> t.shift
		for t.slots[h].pos1 != 0 {
			h = (h + 1) & mask
		}
		t.slots[h] = s
	}
}

// resident is one cache line of the forward pass: the block it holds
// and that block's next use.
type resident struct {
	block uint64
	next  int32
	valid bool
}

// tally counts a forward pass's outcomes.
type tally struct{ hits, fills, bypasses, evictions uint64 }

func (c tally) stats() cache.Stats {
	misses := c.fills + c.bypasses
	return cache.Stats{
		Accesses:  c.hits + misses,
		Hits:      c.hits,
		Misses:    misses,
		Fills:     c.fills,
		Bypasses:  c.bypasses,
		Evictions: c.evictions,
	}
}

// decideDM is the forward pass of the optimal direct-mapped cache: it
// runs the pass's references lo through hi-1 through lines (one per
// set) and tallies the outcomes. lines carries over between calls, so
// a warmup prefix and the window after it are two calls.
//
//dynexcheck:hot
func decideDM(p *pass, lo, hi int, lines []resident, setMask uint64) tally {
	var c tally
	refs, lineShift := p.refs[lo:hi], p.lineShift
	next := p.next[lo:hi][:len(refs)]
	for i := range refs {
		nx := next[i]
		if nx == inRun {
			c.hits++
			continue
		}
		b := refs[i].Addr >> lineShift
		l := &lines[b&setMask]
		switch {
		case l.valid && l.block == b:
			l.next = nx
			c.hits++
		case !l.valid:
			*l = resident{block: b, next: nx, valid: true}
			c.fills++
		case nx < l.next:
			// The newcomer is needed sooner: replace.
			l.block, l.next = b, nx
			c.fills++
			c.evictions++
		default:
			// The resident is needed sooner (or equally late): bypass.
			c.bypasses++
		}
	}
	return c
}

// decideSetAssoc is the forward pass of the optimal set-associative
// cache over the whole pass: ways holds nways residents per set, set
// after set.
//
//dynexcheck:hot
func decideSetAssoc(p *pass, ways []resident, nways int, setMask uint64) tally {
	var c tally
	refs, lineShift := p.refs, p.lineShift
	next := p.next[:len(refs)]
refs:
	for i := range refs {
		nx := next[i]
		b := refs[i].Addr >> lineShift
		base := int(b&setMask) * nways
		set := ways[base : base+nways]
		for w := range set {
			if set[w].valid && set[w].block == b {
				set[w].next = nx
				c.hits++
				continue refs
			}
		}
		empty, worst := -1, -1
		for w := range set {
			if !set[w].valid {
				empty = w
				break
			}
			if worst < 0 || set[w].next > set[worst].next {
				worst = w
			}
		}
		switch {
		case empty >= 0:
			set[empty] = resident{block: b, next: nx, valid: true}
			c.fills++
		case nx < set[worst].next:
			// The newcomer is needed before the farthest-future resident.
			set[worst] = resident{block: b, next: nx, valid: true}
			c.fills++
			c.evictions++
		default:
			c.bypasses++
		}
	}
	return c
}
