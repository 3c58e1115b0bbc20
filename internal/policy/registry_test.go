package policy

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/victim"
)

// mixRefs generates a deterministic pseudo-random reference stream (an
// LCG over a 64KB footprint) that exercises hits, conflicts, and
// evictions.
func mixRefs(n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	state := uint64(0x2545F4914F6CDD1D)
	for i := range refs {
		state = state*6364136223846793005 + 1442695040888963407
		refs[i] = trace.Ref{Addr: (state >> 33) % (64 << 10)}
	}
	return refs
}

// TestNamesAllParseAndBuild: every name the registry advertises parses,
// builds at a stock geometry, and (online families) runs with
// self-consistent stats. This is the inventory -list-policies exposes.
func TestNamesAllParseAndBuild(t *testing.T) {
	geom := cache.DM(4096, 16)
	refs := mixRefs(2000)
	for _, name := range Names() {
		sp, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		sim, err := sp.Build(geom)
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		m, err := Window(sim, refs, 0)
		if err != nil {
			t.Errorf("Window(%q): %v", name, err)
			continue
		}
		s := m.Stats
		if s.Accesses != uint64(len(refs)) || s.Hits+s.Misses != s.Accesses {
			t.Errorf("%q stats inconsistent: %+v", name, s)
		}
	}
}

// TestBuildMatchesHandConstruction pins spec semantics against the
// hand-built simulators the CLIs used before the registry: identical
// stats over a mixed stream. This is what keeps sweep CSVs byte-stable
// across the refactor.
func TestBuildMatchesHandConstruction(t *testing.T) {
	geom := cache.DM(4096, 16)
	refs := mixRefs(5000)
	cases := []struct {
		spec string
		mk   func() cache.Simulator
	}{
		{"dm", func() cache.Simulator { return cache.MustDirectMapped(geom) }},
		// line 16 > 4, so auto last-line is on, matching the sweep grid.
		{"de", func() cache.Simulator {
			return core.Must(core.Config{Geometry: geom, Store: core.NewTableStore(true), UseLastLine: true})
		}},
		{"de-hashed", func() cache.Simulator {
			return core.Must(core.Config{
				Geometry:    geom,
				Store:       core.MustHashedStore(int(geom.Lines())*4, true),
				UseLastLine: true,
			})
		}},
		{"de:cold=miss,nolastline", func() cache.Simulator {
			return core.Must(core.Config{Geometry: geom, Store: core.NewTableStore(false)})
		}},
		{"de:sticky=4", func() cache.Simulator {
			return core.Must(core.Config{Geometry: geom, Store: core.NewTableStore(true), UseLastLine: true, StickyMax: 4})
		}},
		{"de-stream:depth=2", func() cache.Simulator {
			return stream.MustExclusion(core.Config{Geometry: geom, Store: core.NewTableStore(true)}, 2)
		}},
		{"lru2", func() cache.Simulator {
			g := geom
			g.Ways = 2
			return cache.MustSetAssoc(g, cache.LRU, 1)
		}},
		{"lru:ways=4", func() cache.Simulator {
			g := geom
			g.Ways = 4
			return cache.MustSetAssoc(g, cache.LRU, 1)
		}},
		{"fifo2", func() cache.Simulator {
			g := geom
			g.Ways = 2
			return cache.MustSetAssoc(g, cache.FIFO, 1)
		}},
		{"victim:entries=8", func() cache.Simulator { return victim.Must(geom, 8) }},
		{"stream", func() cache.Simulator { return stream.Must(geom, 4) }},
	}
	for _, c := range cases {
		got := MustBuild(c.spec, geom)
		want := c.mk()
		cache.RunRefs(got, refs)
		cache.RunRefs(want, refs)
		if got.Stats() != want.Stats() {
			t.Errorf("%q: stats %+v != hand-built %+v", c.spec, got.Stats(), want.Stats())
		}
	}
}

// TestAutoLastLine pins the tri-state default: 4-byte lines leave the §6
// buffer off, wider lines enable it, and explicit options win either
// way. Observed through the lastline_hits counter on sequential
// references.
func TestAutoLastLine(t *testing.T) {
	seq := make([]trace.Ref, 64)
	for i := range seq {
		seq[i] = trace.Ref{Addr: uint64(i) * 4}
	}
	lastLineHits := func(specStr string, line uint64) uint64 {
		t.Helper()
		sim := MustBuild(specStr, cache.DM(1024, line))
		cache.RunRefs(sim, seq)
		for _, c := range cache.SnapshotExtras(sim) {
			if c.Name == "lastline_hits" {
				return c.Value
			}
		}
		t.Fatalf("%q has no lastline_hits counter", specStr)
		return 0
	}
	if got := lastLineHits("de", 4); got != 0 {
		t.Errorf("de at 4B lines: lastline_hits = %d, want 0 (auto off)", got)
	}
	if got := lastLineHits("de", 16); got == 0 {
		t.Error("de at 16B lines: lastline_hits = 0, want >0 (auto on)")
	}
	if got := lastLineHits("de:nolastline", 16); got != 0 {
		t.Errorf("de:nolastline at 16B lines: lastline_hits = %d, want 0", got)
	}
	if got := lastLineHits("de:lastline", 4); got != 0 {
		// 4-byte lines hold one reference each; the buffer exists but
		// sequential references never revisit the current line.
		t.Errorf("de:lastline at 4B lines: lastline_hits = %d", got)
	}
}

// TestBuildErrors pins that Build surfaces geometry and zero-Spec
// problems as errors rather than panics.
func TestBuildErrors(t *testing.T) {
	bad := cache.Geometry{Size: 100, LineSize: 3}
	for _, name := range []string{"dm", "de", "de-stream", "opt", "lru", "victim", "stream"} {
		if sim, err := MustParse(name).Build(bad); err == nil {
			t.Errorf("Build(%q, bad geometry) = %T, want error", name, sim)
		}
	}
	if sim, err := (Spec{}).Build(cache.DM(1024, 4)); err == nil {
		t.Errorf("zero Spec built %T, want error", sim)
	}
}

// TestFamiliesMetadata pins registry invariants the consumers rely on:
// docs present, opt the only Direct family, aliases resolving to their
// family, and no duplicate names.
func TestFamiliesMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Families() {
		if f.Name == "" || f.Doc == "" {
			t.Errorf("family %+v missing name or doc", f)
		}
		if f.Direct != (f.Name == "opt") {
			t.Errorf("family %s: Direct = %v", f.Name, f.Direct)
		}
		if !f.EventualHit {
			t.Errorf("family %s: EventualHit = false", f.Name)
		}
		for _, a := range append([]string{f.Name}, f.Aliases...) {
			if seen[a] {
				t.Errorf("name %q registered twice", a)
			}
			seen[a] = true
		}
		for _, a := range f.Aliases {
			sp, err := Parse(a)
			if err != nil {
				t.Errorf("alias %q: %v", a, err)
			} else if sp.Family() != f.Name {
				t.Errorf("alias %q resolved to family %q, want %q", a, sp.Family(), f.Name)
			}
		}
	}
}

// TestCellShape pins the engine adapter: a size column of opt, the one
// whole-stream family, gets Direct cells, of an online family Policy
// cells, one per size at the column's line, and the optimal cells, which
// share one next-use pass inside a run of their Passes and compute their
// own outside one, agree with Window cell by cell.
func TestCellShape(t *testing.T) {
	sizes := []uint64{4096, 1024, 4096}
	for _, name := range []string{"opt", "de"} {
		cells := MustParse(name).Cells(16, sizes, new(opt.Passes))
		if len(cells) != len(sizes) {
			t.Fatalf("%s: %d cells for %d sizes", name, len(cells), len(sizes))
		}
		for k, c := range cells {
			if c.Geometry != cache.DM(sizes[k], 16) {
				t.Errorf("%s cell %d geometry = %+v, want %d B at 16 B lines", name, k, c.Geometry, sizes[k])
			}
			if direct := name == "opt"; (c.Direct != nil) != direct || (c.Policy != nil) == direct {
				t.Errorf("%s cell %d = %+v, want only Direct set iff the family is whole-stream", name, k, c)
			}
		}
	}
	refs := mixRefs(3000)
	for _, limit := range []int{0, 1} {
		passes := new(opt.Passes)
		cells := MustParse("opt").Cells(16, sizes, passes)
		end := passes.Run(limit)
		for k, c := range cells {
			got, err := c.Direct(refs, c.Geometry)
			if err != nil {
				t.Fatalf("opt Direct %d: %v", k, err)
			}
			m, err := Window(MustBuild("opt", c.Geometry), refs, 0)
			if err != nil {
				t.Fatalf("opt Window: %v", err)
			}
			if got != m.Stats {
				t.Errorf("limit %d: opt cell %d Direct = %+v, Window = %+v", limit, k, got, m.Stats)
			}
		}
		end()
	}
}
