// Package multisim implements single-pass size columns: one traversal
// of a reference stream simulates an entire power-of-two size column
// of a sweep grid — every cache size sharing one (line size, policy)
// pair — producing per-size cache.Stats and policy Extras identical to
// simulating each cell on its own.
//
// A column's members are the per-cell simulators themselves, built by
// the same constructor a lone cell uses, and it drives them through
// their family's batch loop (AccessBlocks): the loop a lone cell's
// BatchAccess runs. What the column adds is DEW's observation
// (arXiv:1506.03181): all members share one block number per reference,
// and only the members below the first that can settle a reference do
// any work for it. The column decodes each BlockChunk of references
// once and cascades the block list through its members in ascending
// size. Each member's loop returns the blocks a larger member still has
// to see, compacted to the front:
//
//   - direct-mapped returns its misses: by inclusion a direct-mapped
//     hit at size S is a hit at every larger size, where it changes no
//     state;
//   - LRU and FIFO return the blocks that failed their set's MRA test.
//     A set's most recently accessed (MRA) block is always resident and
//     a hit on it changes no state, and with nested set counts a block
//     that is MRA at S is MRA at every larger size. FIFO has no
//     inclusion (a non-MRA hit at S can miss at 2S), so its other hits
//     go on too;
//   - dynamic exclusion has no inclusion (a sticky bypass keeps a block
//     out of a small cache while a larger one admits it), so its
//     members below the largest run a second loop, ColumnBlocks, which
//     returns every block but those whose set is quiet: its last
//     StickyMax+1 references were all to that block, which then sits
//     at full sticky level with its hit flag set at this size and every
//     larger one, where the next reference to it is a hit that changes
//     nothing. The largest member hands nothing on and runs the
//     lone-cell loop. The §6 last-line register is size-independent:
//     the smallest member's Decode runs it once for the column, which
//     counts its hits for the others.
//
// The cascade is exact. Each member's state depends only on the blocks
// it has processed, and a per-reference walk up the members visits
// member k exactly when every smaller member passed the reference on,
// which depends only on those members' own earlier inputs. Run member
// by member in ascending order, a chunk gives every member the same
// subsequence in the same order. A member's Stats so count the blocks
// that reached it; every other reference of the column stopped at a
// smaller member (or in the register) and is a hit, with no state
// change, at this one, so Outcomes adds them as hits.
//
// Batch is annotated //dynexcheck:hot: the decode buffer is allocated
// at construction, and the hotpath-alloc analyzer (DESIGN.md §14) pins
// it allocation-free. Correctness against the per-cell path is pinned
// by the conformance column battery and FuzzColumn
// (internal/conformance), and by the sweep tests comparing a
// full-registry sweep's CSV and journal against a per-cell run of the
// same plan (cmd/dynex-sweep). The premises of the early-outs are
// checked on their own against plain per-cell simulators: MRA residency
// for LRU and FIFO (conformance.CheckMRAProperty), and the quiet set
// for dynamic exclusion (internal/core's TestQuietSetSettles and
// FuzzQuietSet).
package multisim

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// member is a per-cell simulator with a batch loop: cache.DirectMapped,
// cache.SetAssoc (LRU or FIFO, no hook) and core.Cache (no hooks).
// AccessBlocks runs decoded blocks through the cache, recording them in
// its Stats, and returns, compacted to the front of its argument, the
// blocks a larger member of the column still has to see.
type member interface {
	cache.Simulator
	Decode(dst []uint64, refs []trace.Ref) []uint64
	AccessBlocks(blocks []uint64) []uint64
}

// columnLoop is a member with a second batch loop, which the members
// below a column's largest run: core.Cache's ColumnBlocks settles
// blocks its AccessBlocks hands on.
type columnLoop interface {
	ColumnBlocks(blocks []uint64) []uint64
}

// Column is a size column: one simulator per member size, driven
// through its batch loop over one shared decode.
type Column struct {
	members  []member // ascending by size
	order    []int    // order[k]: member k's position in the constructor's sizes
	buf      []uint64 // decode buffer, cache.BlockChunk long
	accesses uint64
	// registerHits counts the references the smallest member's Decode
	// served from the §6 register.
	registerHits uint64
}

// Validate reports whether a (line, sizes, ways) column is simulable
// here: the column needs at least one member and an explicit way
// count, and every member geometry must validate on its own (which
// makes its set count a power of two). Callers (policy.Spec.Column)
// use it to decide column eligibility before constructing anything;
// an ineligible column falls back to cell-by-cell simulation, where
// the per-cell constructor reports the real error.
func Validate(line uint64, sizes []uint64, ways int) error {
	if len(sizes) == 0 {
		return fmt.Errorf("multisim: column has no sizes")
	}
	// Geometry.Ways == 0 means fully associative; a column's members
	// need a real set count each, so columns require explicit
	// associativity.
	if ways < 1 {
		return fmt.Errorf("multisim: column needs ways >= 1, got %d", ways)
	}
	for _, size := range sizes {
		g := cache.Geometry{Size: size, LineSize: line, Ways: ways}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("multisim: %w", err)
		}
	}
	return nil
}

// New builds a column over the given sizes (any order, duplicates
// allowed; Outcomes reports in the same order) whose members build
// makes from the direct-mapped geometry of each size at line, as it
// would for a lone cell. Every member must be a member whose family
// (dm, lru, fifo or de) keeps the cascade exact.
func New(line uint64, sizes []uint64, build func(cache.Geometry) (cache.Simulator, error)) (*Column, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("multisim: column has no sizes")
	}
	c := &Column{
		members: make([]member, len(sizes)),
		order:   ascendingSizes(sizes),
		buf:     make([]uint64, cache.BlockChunk),
	}
	for k, oi := range c.order {
		sim, err := build(cache.DM(sizes[oi], line))
		if err != nil {
			return nil, fmt.Errorf("multisim: %w", err)
		}
		m, ok := sim.(member)
		if !ok {
			return nil, fmt.Errorf("multisim: %T has no batch loop", sim)
		}
		c.members[k] = m
	}
	return c, nil
}

// ascendingSizes returns positions into sizes ordered by ascending size
// (stable, so duplicate sizes keep their relative order). The cascade
// runs members ascending, while Outcomes must come back in the
// caller's order, so a column keeps this permutation: member k reports
// at order[k].
func ascendingSizes(sizes []uint64) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })
	return order
}

// Batch advances every member over the chunk: it decodes a
// cache.BlockChunk of references at a time through the smallest
// member's Decode and cascades the blocks up the members. A member's
// position chooses its loop: the members below the largest run their
// family's column loop where it has one.
//
//dynexcheck:hot
func (c *Column) Batch(refs []trace.Ref) {
	c.accesses += uint64(len(refs))
	last := len(c.members) - 1
	for len(refs) > 0 {
		n := min(len(refs), len(c.buf))
		blocks := c.members[0].Decode(c.buf, refs[:n])
		c.registerHits += uint64(n - len(blocks))
		for _, m := range c.members[:last] {
			if cl, ok := m.(columnLoop); ok {
				blocks = cl.ColumnBlocks(blocks)
			} else {
				blocks = m.AccessBlocks(blocks)
			}
		}
		c.members[last].AccessBlocks(blocks)
		refs = refs[n:]
	}
}

// Outcomes returns cumulative per-member stats and extras in
// constructor size order. A reference that did not reach member k hit
// in the §6 register or was settled by a smaller member, and hits at k
// too, so it counts as one of k's hits. Every member's lastline_hits
// are the column's register hits, which the smallest member's Decode
// counted in its own.
func (c *Column) Outcomes() []engine.ColumnOutcome {
	outs := make([]engine.ColumnOutcome, len(c.members))
	for k, m := range c.members {
		s := m.Stats()
		skip := c.accesses - s.Accesses
		s.Accesses += skip
		s.Hits += skip
		extras := cache.SnapshotExtras(m)
		for i := range extras {
			if extras[i].Name == "lastline_hits" {
				extras[i].Value = c.registerHits
			}
		}
		outs[c.order[k]] = engine.ColumnOutcome{Stats: s, Extras: extras}
	}
	return outs
}
