package conformance

import (
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

// columnSpecs are the column-eligible specs FuzzColumn picks from:
// every registry name and column battery variant that policy.Spec.Column
// accepts.
func columnSpecs(tb testing.TB) []policy.Spec {
	var out []policy.Spec
	for _, f := range policy.Families() {
		for _, name := range append(append([]string{f.Name}, f.Aliases...), multisimVariants[f.Name]...) {
			sp, err := policy.Parse(name)
			if err != nil {
				tb.Fatalf("parse %q: %v", name, err)
			}
			if _, ok := sp.Column(64, []uint64{1 << 16}); ok {
				out = append(out, sp)
			}
		}
	}
	return out
}

// FuzzColumn drives a size column of a fuzzed column-eligible spec,
// line size, one to four power-of-two sizes (unsorted, repeats
// allowed), reference stream and chunking, and requires every member's
// Stats and Extras to equal both a per-cell Access run and a per-cell
// BatchAccess run of its own cell. As an absolute check, direct-mapped
// and LRU hits must not fall as the size grows.
//
//	go test -fuzz FuzzColumn ./internal/conformance/
func FuzzColumn(f *testing.F) {
	mixed := make([]byte, 400)
	for i := range mixed {
		mixed[i] = byte(i*i>>3 ^ i>>5)
	}
	f.Add(uint8(0), uint8(0), uint16(0x0ff3), uint16(1), uint16(7), uint8(0), []byte("\x00\x10\x00\x20\x00\x10\x04\x00"))
	f.Add(uint8(1), uint8(2), uint16(0x1a5f), uint16(500), uint16(3000), uint8(15), mixed)
	f.Add(uint8(4), uint8(1), uint16(0x0c0e), uint16(1024), uint16(33), uint8(6), mixed[:150])
	specs := columnSpecs(f)
	f.Fuzz(func(t *testing.T, pick, lineBits uint8, sizeBits, chunkA, chunkB uint16, repeat uint8, data []byte) {
		sp := specs[int(pick)%len(specs)]
		line := uint64(4) << (lineBits % 4)
		// line*8 holds the widest variant's ways; sizes run to 128 times
		// that, against addresses up to 64 KiB.
		sizes := make([]uint64, 1+sizeBits%4)
		for i := range sizes {
			sizes[i] = line * 8 << (sizeBits >> (2 + 3*i) & 7)
		}
		// The stream is data's addresses, repeated up to 16 times, so a
		// short input reaches past cache.BlockChunk and reuses blocks at
		// every size.
		refs := make([]trace.Ref, len(data)/2*(1+int(repeat)%16))
		for i := range refs {
			j := i % (len(data) / 2)
			refs[i] = trace.Ref{Addr: uint64(binary.LittleEndian.Uint16(data[2*j:])), Kind: trace.Instr}
		}
		chunks := []int{1 + int(chunkA)%4096, 1 + int(chunkB)%4096}

		newCol, ok := sp.Column(line, sizes)
		if !ok {
			t.Fatalf("%s: no column at line %d sizes %v", sp, line, sizes)
		}
		col, err := newCol()
		if err != nil {
			t.Fatalf("%s: column: %v", sp, err)
		}
		for rest, i := refs, 0; len(rest) > 0; i++ {
			n := min(chunks[i%2], len(rest))
			col.Batch(rest[:n])
			rest = rest[n:]
		}
		outs := col.Outcomes()

		for k, size := range sizes {
			geom := cache.DM(size, line)
			scalar, err := sp.Build(geom)
			if err != nil {
				t.Fatalf("%s at %v: %v", sp, geom, err)
			}
			for i := range refs {
				scalar.Access(refs[i].Addr)
			}
			batched, _ := sp.Build(geom)
			b := batched.(cache.BatchSimulator)
			for rest, i := refs, 0; len(rest) > 0; i++ {
				n := min(chunks[(i+1)%2], len(rest))
				b.BatchAccess(rest[:n])
				rest = rest[n:]
			}
			for _, cell := range []cache.Simulator{scalar, batched} {
				if got, want := outs[k].Stats, cell.Stats(); got != want {
					t.Fatalf("%s line %d size %d: column %+v != per-cell %+v (%T)", sp, line, size, got, want, cell)
				}
				diffExtras(t, int64(size), cache.SnapshotExtras(cell), outs[k].Extras)
			}
		}

		if fam := sp.Family(); fam == "dm" || fam == "lru" {
			asc := make([]int, len(sizes))
			for i := range asc {
				asc[i] = i
			}
			sort.Slice(asc, func(a, b int) bool { return sizes[asc[a]] < sizes[asc[b]] })
			for i := 1; i < len(asc); i++ {
				lo, hi := asc[i-1], asc[i]
				if outs[lo].Stats.Hits > outs[hi].Stats.Hits {
					t.Fatalf("%s line %d: %d hits at %d bytes, more than %d at %d bytes",
						sp, line, outs[lo].Stats.Hits, sizes[lo], outs[hi].Stats.Hits, sizes[hi])
				}
			}
		}
	})
}
