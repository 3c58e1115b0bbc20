package multisim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// LRU is the stack-distance size column: Mattson-style stack processing
// (Hill & Smith's forest simulation collapsed onto move-to-front
// stacks) yields every member's hit/miss decision from ONE stack walk
// per reference.
//
// How it works: keep a recency stack (most recent first) per set of the
// SMALLEST member. With bit-selected power-of-two set counts, the set
// index of every member is a prefix-extension of the smallest member's:
// member k's set bits are the smallest member's s0 bits plus needTZ[k]
// more. A walk toward the probed block counts, for each entry above it,
// how many of those extra bits match the probe (the capped trailing
// zero count of the XOR); entry e conflicts with the probe at member k
// iff all needTZ[k] extra bits match, i.e. tz >= needTZ[k]. The
// smallest member's distance is the walk position itself, and each
// larger member's is that minus the histogram buckets below its
// needTZ, so distance < ways is a hit. This is also a constructive
// proof of inclusion across set counts (fixed ways): the matching
// condition at 2S implies the one at S, so distances shrink as caches
// grow and a hit at S is a hit at 2S — the property the conformance
// stack battery asserts. The kernel leans on it: scanning the
// histogram upward from the smallest member finds the first hitting
// member, the reference is counted once there, only the members below
// it (the ones that miss) do any per-member work, and Outcomes
// recovers every member's hits by prefix sum.
//
// Walks early-out once the finest-level count reaches ways (the
// largest member's distance is the column's minimum, so everything
// below is a miss for all members), and entries buried under ways
// same-finest-set newer entries are dead — they can never hit again at
// any member — so stacks are compacted in place when they reach their
// fixed capacity. Both short-cuts are exact, not approximations; the
// conformance column battery pins per-cell equivalence.
type LRU struct {
	lineShift int
	s0        int    // log2 of the smallest member's set count
	minMask   uint64 // smallest member's set mask
	ways      uint64
	members   []lruMember // ascending by size
	order     []int
	// stacks[si] is the recency stack for smallest-member set si:
	// block numbers, most recent first, fixed capacity (see NewLRU).
	stacks    [][]uint64
	groupMask uint64   // finest-set group id bits above s0
	groupCnt  []uint32 // compaction scratch, one slot per group
	bucket    []uint64 // walk scratch: histogram of capped tz values
	// hitFrom[k] counts references whose smallest hitting member is k;
	// hitFrom[len(members)] counts references every member missed.
	hitFrom  []uint64
	accesses uint64
}

type lruMember struct {
	setMask uint64
	needTZ  int // extra set bits above s0 that must match to conflict
	// fillCnt[set] counts valid ways, saturating at ways: fills beyond
	// it are evictions (SetAssoc fills invalid ways first).
	fillCnt []uint32
	evicts  uint64
}

// NewLRU builds an LRU column over the given sizes at a fixed way
// count (any order, duplicates allowed); Outcomes reports in the same
// order.
func NewLRU(line uint64, sizes []uint64, ways int) (*LRU, error) {
	if err := Validate(line, sizes, ways); err != nil {
		return nil, err
	}
	c := &LRU{
		lineShift: bits.TrailingZeros64(line),
		ways:      uint64(ways),
		members:   make([]lruMember, len(sizes)),
		order:     ascendingSizes(sizes),
		hitFrom:   make([]uint64, len(sizes)+1),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / (line * uint64(ways))
		c.members[k] = lruMember{
			setMask: nsets - 1,
			fillCnt: make([]uint32, nsets),
		}
	}
	minSets := c.members[0].setMask + 1
	maxSets := c.members[len(c.members)-1].setMask + 1
	c.s0 = bits.TrailingZeros64(minSets)
	c.minMask = minSets - 1
	for k := range c.members {
		c.members[k].needTZ = bits.TrailingZeros64(c.members[k].setMask+1) - c.s0
	}
	c.groupMask = maxSets/minSets - 1
	c.groupCnt = make([]uint32, c.groupMask+1)
	c.bucket = make([]uint64, c.members[len(c.members)-1].needTZ+1)
	// Stack capacity: compaction keeps at most ways entries per finest-
	// set group (live = everything that could still hit somewhere), and
	// the slack amortizes compaction cost to O(1) per push.
	live := ways * int(c.groupMask+1)
	capLen := live + live/2 + 8
	backing := make([]uint64, int(minSets)*capLen)
	c.stacks = make([][]uint64, minSets)
	for i := range c.stacks {
		c.stacks[i] = backing[:0:capLen]
		backing = backing[capLen:]
	}
	return c, nil
}

// Batch advances every member over the chunk: one stack walk per
// reference decides hit/miss for the whole column (see the type
// comment), then one move-to-front (hit) or push (miss) maintains
// recency. Distances count DISTINCT conflicting blocks above the probe;
// a stale duplicate left behind by an early-out walk can only inflate a
// count already at >= ways (its burial certificate — ways distinct
// same-finest-group entries above it — also conflicts wherever the
// duplicate does), so no decision ever flips.
//
//dynexcheck:hot
func (c *LRU) Batch(refs []trace.Ref) {
	members := c.members
	bucket := c.bucket
	hitFrom := c.hitFrom
	topNeed := len(bucket) - 1
	ways := c.ways
	shift := c.lineShift
	s0 := c.s0
	for i := range refs {
		block := refs[i].Addr >> shift
		si := block & c.minMask
		stack := c.stacks[si]
		for t := range bucket {
			bucket[t] = 0
		}
		found := -1
		for j := 0; j < len(stack); j++ {
			if bucket[topNeed] >= ways {
				break
			}
			e := stack[j]
			if e == block {
				found = j
				break
			}
			// Same smallest-member set, so e^block is nonzero above s0.
			tz := bits.TrailingZeros64((e ^ block) >> s0)
			if tz > topNeed {
				tz = topNeed
			}
			bucket[tz]++
		}
		// kmin is the smallest hitting member. A found block is a hit at
		// the largest member (the walk stopped short of ways entries
		// sharing its finest set), so the upward scan always ends in
		// one: member k conflicts with the entries whose tz >= needTZ[k],
		// the walk position less the buckets below needTZ[k].
		kmin := len(members)
		if found >= 0 {
			dist := uint64(found)
			t := 0
			for k := range members {
				for ; t < members[k].needTZ; t++ {
					dist -= bucket[t]
				}
				if dist < ways {
					kmin = k
					break
				}
			}
		}
		hitFrom[kmin]++
		for k := 0; k < kmin; k++ {
			m := &members[k]
			set := block & m.setMask
			if uint64(m.fillCnt[set]) < ways {
				m.fillCnt[set]++
			} else {
				m.evicts++
			}
		}
		if found >= 0 {
			copy(stack[1:found+1], stack[:found])
			stack[0] = block
		} else {
			if len(stack) == cap(stack) {
				stack = c.compact(stack)
			}
			n := len(stack)
			stack = stack[: n+1 : cap(stack)]
			copy(stack[1:], stack[:n])
			stack[0] = block
			c.stacks[si] = stack
		}
	}
	c.accesses += uint64(len(refs))
}

// compact drops dead stack entries in place: an entry with ways
// same-finest-group entries above it can never hit again at any member
// (distances only grow as entries age), so it contributes nothing but
// walk length. Survivors keep relative recency order, and at most ways
// entries per finest-set group survive, so the result fits well under
// the fixed capacity.
//
//dynexcheck:hot
func (c *LRU) compact(stack []uint64) []uint64 {
	cnt := c.groupCnt
	for i := range cnt {
		cnt[i] = 0
	}
	ways := uint32(c.ways)
	w := 0
	for _, e := range stack {
		g := (e >> c.s0) & c.groupMask
		if cnt[g] >= ways {
			continue
		}
		cnt[g]++
		stack[w] = e
		w++
	}
	return stack[:w]
}

// Outcomes returns cumulative per-member stats in constructor size
// order. Set-associative caches never bypass: misses equal fills.
func (c *LRU) Outcomes() []engine.ColumnOutcome {
	outs := make([]engine.ColumnOutcome, len(c.members))
	hits := uint64(0)
	for k := range c.members {
		hits += c.hitFrom[k]
		outs[c.order[k]] = engine.ColumnOutcome{Stats: cache.Stats{
			Accesses:  c.accesses,
			Hits:      hits,
			Misses:    c.accesses - hits,
			Fills:     c.accesses - hits,
			Evictions: c.members[k].evicts,
		}}
	}
	return outs
}
