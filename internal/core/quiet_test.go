package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
)

// bitStore is a hit-last store whose Lookup answers the next bit of
// its source, whatever the block, and whose Writeback is lost: the
// worst a hashed store's aliasing can do, flipping a block's bit
// between two of its references.
type bitStore struct{ next func() bool }

func (s bitStore) Lookup(uint64) bool     { return s.next() }
func (s bitStore) Writeback(uint64, bool) {}

// quietCounts is what checkQuietSet saw: references to a quiet set's
// block, the ones ColumnBlocks settled, and the misses on a block whose
// last StickyMax references, but not StickyMax+1, were all to it.
type quietCounts struct{ quiet, settled, shortMisses int }

// checkQuietSet drives a one-set cache at stickyMax through blocks with
// scalar Access, and a second one through ColumnBlocks a block at a
// time, each on its own copy of the store answers newBits makes. It
// fails t if a reference to a quiet set's block (the set's last
// stickyMax+1 references were all to it) is anything but a hit that
// leaves the tag and the state word unchanged, if ColumnBlocks settles
// a reference that is not to a quiet set's block, or if the two caches'
// FSMs part.
func checkQuietSet(t *testing.T, stickyMax int, blocks []uint64, newBits func() func() bool) quietCounts {
	t.Helper()
	geom := cache.DM(4, 4) // one set
	ref := Must(Config{Geometry: geom, Store: bitStore{newBits()}, StickyMax: stickyMax})
	col := Must(Config{Geometry: geom, Store: bitStore{newBits()}, StickyMax: stickyMax})
	var counts quietCounts
	var last uint64
	run := 0 // how many of the latest references, in a row, were to last
	for i, b := range blocks {
		quiet := run > stickyMax && b == last
		tag, st := ref.tags[0], ref.state[0]
		res := ref.Access(b << 2)
		if quiet {
			counts.quiet++
			if res != cache.Hit || ref.tags[0] != tag || ref.state[0] != st {
				t.Fatalf("StickyMax %d, reference %d to block %d after %d in a row: %v, tag %d→%d, state %#x→%#x",
					stickyMax, i, b, run, res, tag, ref.tags[0], st, ref.state[0])
			}
		}
		if run == stickyMax && b == last && res != cache.Hit {
			counts.shortMisses++
		}
		if len(col.ColumnBlocks([]uint64{b})) == 0 {
			counts.settled++
			if !quiet {
				t.Fatalf("StickyMax %d, reference %d to block %d after %d in a row: ColumnBlocks settled it", stickyMax, i, b, run)
			}
		}
		if col.tags[0] != ref.tags[0] || col.state[0]&^runBits != ref.state[0] || col.Stats() != ref.Stats() {
			t.Fatalf("StickyMax %d, reference %d: ColumnBlocks left tag %d state %#x %+v, Access tag %d state %#x %+v",
				stickyMax, i, col.tags[0], col.state[0], col.Stats(), ref.tags[0], ref.state[0], ref.Stats())
		}
		if b == last {
			run++
		} else {
			last, run = b, 1
		}
	}
	return counts
}

// TestQuietSetSettles pins the fact the DE column's early-out rests
// on, with the scalar FSM as the reference: a set whose last
// StickyMax+1 references were all to block b holds b at full sticky
// level with its hit flag set whatever the hit-last store answered, so
// the next reference to b is a hit that changes nothing. The store
// answers random bits. StickyMax references are not enough: a resident
// at full level can defend itself against all of them, and the next
// reference to b then misses.
func TestQuietSetSettles(t *testing.T) {
	for m := 1; m <= 8; m++ {
		rng := rand.New(rand.NewSource(int64(m)))
		// Runs of 1 to m+2 references to one of three blocks.
		var blocks []uint64
		for len(blocks) < 300_000 {
			b := uint64(rng.Intn(3))
			for n := 1 + rng.Intn(m+2); n > 0; n-- {
				blocks = append(blocks, b)
			}
		}
		seed := rng.Int63()
		newBits := func() func() bool {
			bits := rand.New(rand.NewSource(seed))
			return func() bool { return bits.Intn(2) == 1 }
		}
		c := checkQuietSet(t, m, blocks, newBits)
		t.Logf("StickyMax %d: %d quiet references, %d settled by ColumnBlocks, %d misses after %d in a row",
			m, c.quiet, c.settled, c.shortMisses, m)
		if c.settled == 0 {
			t.Errorf("StickyMax %d: ColumnBlocks settled no reference", m)
		}
		if c.shortMisses == 0 {
			t.Errorf("StickyMax %d: no reference missed after %d in a row to its block; the stream does not show the bound is tight", m, m)
		}
	}
}

// TestColumnBlocksPastTheRunField pins that a StickyMax whose quiet
// level the run field cannot hold settles nothing, however long a run.
func TestColumnBlocksPastTheRunField(t *testing.T) {
	for _, m := range []int{maxQuietSticky + 1, 255} {
		c := Must(Config{Geometry: cache.DM(4, 4), Store: ConstStore(false), StickyMax: m})
		blocks := make([]uint64, 1000)
		if got := len(c.ColumnBlocks(blocks)); got != len(blocks) {
			t.Errorf("StickyMax %d: ColumnBlocks handed on %d of %d references to one block", m, got, len(blocks))
		}
	}
	c := Must(Config{Geometry: cache.DM(4, 4), Store: ConstStore(false), StickyMax: maxQuietSticky})
	if got := len(c.ColumnBlocks(make([]uint64, 1000))); got != maxQuietSticky+1 {
		t.Errorf("StickyMax %d: ColumnBlocks handed on %d references to one block, want %d", maxQuietSticky, got, maxQuietSticky+1)
	}
}
