package core

import (
	"fmt"
	"math/bits"
)

// tablePageBlocks is the number of blocks covered by one TableStore
// page. Reference streams have block locality by construction, so
// nearly every store operation lands on a page touched shortly before.
const tablePageBlocks = 1 << 12

// tableRecentBits sizes TableStore's cache of recently touched pages at
// 1<<tableRecentBits = 16 slots. A replacement looks up the incoming
// block and writes back the evicted one, which a cache size apart
// usually sit on different pages, so the cache needs more than one
// slot.
const tableRecentBits = 4

// tablePage holds two bits per block: whether the block has ever been
// written back (seen) and, if so, its recorded hit-last bit.
type tablePage struct {
	seen [tablePageBlocks / 64]uint64
	bits [tablePageBlocks / 64]uint64
}

// TableStore is the idealized hit-last store: one bit per memory block,
// unbounded. The paper calls this configuration simply "dynamic
// exclusion"; it is what Figures 3, 4, 5, 11–15 measure. Default is the
// bit reported for never-seen blocks — the cold-start assume-hit /
// assume-miss choice of §5.
//
// The table is stored as a paged bitmap with a small direct-mapped
// cache of recently touched pages in front of the page map, so the
// Lookup/Writeback pair a miss costs is a few shifts and masks rather
// than two map operations.
type TableStore struct {
	pages   map[uint64]*tablePage
	recent  [1 << tableRecentBits]recentPage
	n       int // blocks with a recorded bit
	Default bool
}

// recentPage is one slot of TableStore's recent-page cache; a nil page
// is an empty slot.
type recentPage struct {
	key  uint64
	page *tablePage
}

// NewTableStore returns an empty table reporting def for unseen blocks.
func NewTableStore(def bool) *TableStore {
	return &TableStore{pages: make(map[uint64]*tablePage), Default: def}
}

// recentSlot returns the recent-page cache slot for a page key. Keys of
// conflicting blocks differ by multiples of a power of two, so the slot
// comes from a multiplicative hash's top bits, not the key's low bits.
func (t *TableStore) recentSlot(key uint64) *recentPage {
	return &t.recent[(key*0x9E3779B97F4A7C15)>>(64-tableRecentBits)]
}

// page returns the page covering block, or nil if no bit in its range
// has been recorded.
func (t *TableStore) page(block uint64) *tablePage {
	key := block / tablePageBlocks
	r := t.recentSlot(key)
	if r.page != nil && r.key == key {
		return r.page
	}
	p := t.pages[key]
	if p != nil {
		r.key, r.page = key, p
	}
	return p
}

// Lookup returns the recorded bit, or the default for unseen blocks.
func (t *TableStore) Lookup(block uint64) bool {
	p := t.page(block)
	if p == nil {
		return t.Default
	}
	i := block % tablePageBlocks
	if p.seen[i>>6]&(1<<(i&63)) == 0 {
		return t.Default
	}
	return p.bits[i>>6]&(1<<(i&63)) != 0
}

// Writeback records the bit.
func (t *TableStore) Writeback(block uint64, hitLast bool) {
	p := t.page(block)
	if p == nil {
		key := block / tablePageBlocks
		p = new(tablePage)
		t.pages[key] = p
		*t.recentSlot(key) = recentPage{key: key, page: p}
	}
	i := block % tablePageBlocks
	if p.seen[i>>6]&(1<<(i&63)) == 0 {
		p.seen[i>>6] |= 1 << (i & 63)
		t.n++
	}
	if hitLast {
		p.bits[i>>6] |= 1 << (i & 63)
	} else {
		p.bits[i>>6] &^= 1 << (i & 63)
	}
}

// Len returns the number of blocks with recorded bits.
func (t *TableStore) Len() int { return t.n }

// Reset forgets all recorded bits.
func (t *TableStore) Reset() {
	clear(t.pages)
	t.recent = [1 << tableRecentBits]recentPage{}
	t.n = 0
}

// HashedStore is the paper's "hashed" storage strategy (§5): a fixed-size
// array of hit-last bits kept in the L1 cache, indexed by a hash of the
// block number. Distinct blocks may share a bit (aliasing) — the paper
// finds four bits per L1 cache line are enough for good performance. This
// store needs no cooperation from the L2 cache at all.
type HashedStore struct {
	words []uint64
	mask  uint64
}

// NewHashedStore returns a store with capacity for `entries` bits, rounded
// up to a power of two. entries must be positive. If def is true every bit
// starts set (assume-hit cold start); otherwise clear.
func NewHashedStore(entries int, def bool) (*HashedStore, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("core: hashed store needs positive entries, got %d", entries)
	}
	n := uint64(1)
	for n < uint64(entries) {
		n <<= 1
	}
	s := &HashedStore{
		words: make([]uint64, (n+63)/64),
		mask:  n - 1,
	}
	if def {
		for i := range s.words {
			s.words[i] = ^uint64(0)
		}
	}
	return s, nil
}

// MustHashedStore is NewHashedStore but panics on error.
func MustHashedStore(entries int, def bool) *HashedStore {
	s, err := NewHashedStore(entries, def)
	if err != nil {
		panic(err)
	}
	return s
}

// Entries returns the number of hit-last bits in the store.
func (s *HashedStore) Entries() int { return int(s.mask + 1) }

// hash mixes the block number so that blocks a cache-size apart (which are
// exactly the ones that conflict) do not systematically alias onto the
// same bit.
func hash(block uint64) uint64 {
	// Fibonacci hashing with an extra xor-shift; cheap and adequate.
	block ^= block >> 33
	block *= 0x9E3779B97F4A7C15
	return bits.RotateLeft64(block, 29)
}

// Lookup returns the (possibly aliased) hit-last bit for block.
func (s *HashedStore) Lookup(block uint64) bool {
	i := hash(block) & s.mask
	return s.words[i>>6]&(1<<(i&63)) != 0
}

// Writeback sets or clears the (possibly aliased) bit for block.
func (s *HashedStore) Writeback(block uint64, hitLast bool) {
	i := hash(block) & s.mask
	if hitLast {
		s.words[i>>6] |= 1 << (i & 63)
	} else {
		s.words[i>>6] &^= 1 << (i & 63)
	}
}

// ConstStore reports the same hit-last bit for every block and discards
// writebacks. ConstStore(true) makes every conflicting reference displace
// a sticky resident after one exclusion — an ablation that isolates the
// sticky bit; ConstStore(false) makes exclusion permanent until the
// resident goes non-sticky.
type ConstStore bool

// Lookup returns the constant.
func (c ConstStore) Lookup(uint64) bool { return bool(c) }

// Writeback is a no-op.
func (c ConstStore) Writeback(uint64, bool) {}
