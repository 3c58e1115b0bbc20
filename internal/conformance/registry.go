package conformance

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

// CheckRegistry runs the battery against every family in the policy
// registry at the given geometry, so a newly registered policy is
// conformance-checked without any test changes. Online families get the
// full Check battery, eventual hit included: every registered policy
// must hit an address referenced often enough. Whole-stream (Direct)
// families cannot be driven access-by-access, so they get windowed
// equivalents through policy.Window.
func CheckRegistry(t *testing.T, geom cache.Geometry, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 8
	}
	if opts.Refs == 0 {
		opts.Refs = 4000
	}
	for _, f := range policy.Families() {
		f := f
		sp, err := policy.Parse(f.Name)
		if err != nil {
			t.Errorf("registry family %q does not parse as a bare spec: %v", f.Name, err)
			continue
		}
		if f.Direct {
			t.Run(f.Name+"/window", func(t *testing.T) { checkDirect(t, sp, geom, opts) })
			continue
		}
		mk := func() cache.Simulator {
			sim, err := sp.Build(geom)
			if err != nil {
				t.Fatalf("build %q at %+v: %v", f.Name, geom, err)
			}
			return sim
		}
		o := opts
		o.EventualHit = true
		Check(t, f.Name, o, mk)
	}
}

// refStream converts the harness address stream into instruction refs
// for the windowed runner.
func refStream(seed int64, n int) []trace.Ref {
	addrs := stream(seed, n)
	refs := make([]trace.Ref, len(addrs))
	for i, a := range addrs {
		refs[i] = trace.Ref{Addr: a, Kind: trace.Instr}
	}
	return refs
}

// checkDirect is the battery for whole-stream policies: stats
// consistency, determinism, and warmup-window accounting, all through
// policy.Window.
func checkDirect(t *testing.T, sp policy.Spec, geom cache.Geometry, opts Options) {
	t.Helper()
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		refs := refStream(seed, opts.Refs)
		sim, err := sp.Build(geom)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		m, err := policy.Window(sim, refs, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := m.Stats
		if s.Accesses != uint64(len(refs)) {
			t.Fatalf("seed %d: accesses %d, want %d", seed, s.Accesses, len(refs))
		}
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("seed %d: hits %d + misses %d != accesses %d", seed, s.Hits, s.Misses, s.Accesses)
		}
		if mr := s.MissRate(); mr < 0 || mr > 1 {
			t.Fatalf("seed %d: miss rate %v out of [0,1]", seed, mr)
		}

		// Determinism: an identical fresh run measures identically.
		sim2, err := sp.Build(geom)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		m2, err := policy.Window(sim2, refs, 0)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if m2.Stats != s {
			t.Fatalf("seed %d: two fresh runs diverged: %+v vs %+v", seed, s, m2.Stats)
		}

		// Warmup accounting: the measured window covers exactly the
		// post-warmup suffix.
		warm := len(refs) / 4
		sim3, err := sp.Build(geom)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		mw, err := policy.Window(sim3, refs, warm)
		if err != nil {
			t.Fatalf("seed %d warmup: %v", seed, err)
		}
		if mw.Stats.Accesses != uint64(len(refs)-warm) {
			t.Fatalf("seed %d: window accesses %d, want %d", seed, mw.Stats.Accesses, len(refs)-warm)
		}
	}
}
