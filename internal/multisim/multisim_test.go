package multisim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

func TestValidate(t *testing.T) {
	ok := []uint64{4096, 8192, 16384}
	if err := Validate(4, ok, 1); err != nil {
		t.Errorf("valid column rejected: %v", err)
	}
	cases := []struct {
		name  string
		line  uint64
		sizes []uint64
		ways  int
	}{
		{"no sizes", 4, nil, 1},
		{"non-power-of-two sets", 4, []uint64{4096, 12288}, 1},
		{"line exceeds size", 8192, []uint64{4096}, 1},
		{"zero ways", 4, ok, 0},
		{"ways not dividing sets", 4, []uint64{4096, 8192}, 3},
	}
	for _, c := range cases {
		if err := Validate(c.line, c.sizes, c.ways); err == nil {
			t.Errorf("%s: Validate(%d, %v, %d) accepted", c.name, c.line, c.sizes, c.ways)
		}
	}
}

// TestOutcomeOrder pins that Outcomes follows the caller's size order
// even when the sizes arrive unsorted: member k of the input is row k
// of the output.
func TestOutcomeOrder(t *testing.T) {
	refs := make([]trace.Ref, 4096)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i%1500) * 8}
	}
	dm := func(g cache.Geometry) (cache.Simulator, error) { return cache.NewDirectMapped(g) }
	sorted, err := New(4, []uint64{2048, 4096, 8192}, dm)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := New(4, []uint64{8192, 2048, 4096}, dm)
	if err != nil {
		t.Fatal(err)
	}
	sorted.Batch(refs)
	shuffled.Batch(refs)
	a, b := sorted.Outcomes(), shuffled.Outcomes()
	if a[0].Stats != b[1].Stats || a[1].Stats != b[2].Stats || a[2].Stats != b[0].Stats {
		t.Errorf("outcome rows do not track input order:\nsorted   %+v\nshuffled %+v", a, b)
	}
	if a[0].Stats.Hits >= a[2].Stats.Hits {
		t.Errorf("inclusion sanity: 2048-word cache has %d hits, 8192 has %d",
			a[0].Stats.Hits, a[2].Stats.Hits)
	}
}
