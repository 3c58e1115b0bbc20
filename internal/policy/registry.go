package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/victim"
)

// Family describes one registered policy family: its name, what it
// simulates, and the metadata consumers need to drive it (whether it
// needs the whole stream up front, and which conformance battery
// applies).
type Family struct {
	// Name is the canonical family name ("dm", "de", ...).
	Name string
	// Doc is a one-line description with the accepted options, shown by
	// dynex-sweep -list-policies and the CLIs' -policy usage text.
	Doc string
	// Aliases are legacy spec names that expand to this family with
	// preset options (e.g. "de-hashed" → "de:store=hashed*4").
	Aliases []string
	// Direct marks whole-stream policies (Belady-optimal): the built
	// simulator implements WindowDirect and panics on Access, so it must
	// be driven through policy.Window or engine.Cell.Direct.
	Direct bool

	// options is the set of option keys Parse accepts for the family
	// ("nolastline" is folded into "lastline").
	options map[string]bool
}

// optionList renders the allowed option keys for error messages, in the
// spec's canonical order.
func (f Family) optionList() string {
	if len(f.options) == 0 {
		return "none"
	}
	var out string
	for _, key := range [...]string{"sticky", "store", "cold", "lastline", "ways", "entries", "depth"} {
		if f.options[key] {
			if out != "" {
				out += ", "
			}
			out += key
			if key == "lastline" {
				out += ", nolastline"
			}
		}
	}
	return out
}

// families is the registry, in presentation order: the paper's baseline
// and contribution first, then the comparison policies.
var families = []Family{
	{
		Name: "dm",
		Doc:  "conventional direct-mapped cache (no options)",
	},
	{
		Name:    "de",
		Doc:     "dynamic exclusion (sticky=N, store=table|hashed*BITS, cold=hit|miss, lastline|nolastline)",
		Aliases: []string{"de-hashed"},
		options: map[string]bool{"sticky": true, "store": true, "cold": true, "lastline": true},
	},
	{
		Name:    "de-stream",
		Doc:     "dynamic exclusion with excluded lines served by a stream buffer (§6; sticky, store, cold, depth=N)",
		options: map[string]bool{"sticky": true, "store": true, "cold": true, "depth": true},
	},
	{
		Name:    "opt",
		Doc:     "Belady-optimal direct-mapped with bypass, needs the whole stream (lastline|nolastline)",
		Direct:  true,
		options: map[string]bool{"lastline": true},
	},
	{
		Name:    "lru",
		Doc:     "set-associative LRU (ways=N)",
		Aliases: []string{"lru2", "lru4"},
		options: map[string]bool{"ways": true},
	},
	{
		Name:    "fifo",
		Doc:     "set-associative FIFO (ways=N)",
		Aliases: []string{"fifo2"},
		options: map[string]bool{"ways": true},
	},
	{
		Name:    "victim",
		Doc:     "direct-mapped cache with a victim buffer (entries=N)",
		options: map[string]bool{"entries": true},
	},
	{
		Name:    "stream",
		Doc:     "direct-mapped cache with a sequential stream buffer (depth=N)",
		options: map[string]bool{"depth": true},
	},
}

// Families returns the registered policy families in presentation
// order. The slice is freshly allocated; callers may reorder it.
func Families() []Family {
	out := make([]Family, len(families))
	copy(out, families)
	return out
}

// familyByName looks a family up by its canonical name (not an alias).
func familyByName(name string) (Family, bool) {
	for _, f := range families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Names returns every accepted spec head: each family followed by its
// aliases, in registry order. This is the -list-policies inventory.
func Names() []string {
	var out []string
	for _, f := range families {
		out = append(out, f.Name)
		out = append(out, f.Aliases...)
	}
	return out
}

// lastLineEnabled resolves the tri-state last-line option against a
// geometry: auto enables the §6 buffer whenever lines hold more than one
// 4-byte instruction.
func (s Spec) lastLineEnabled(geom cache.Geometry) bool {
	switch s.lastLine {
	case lastLineOn:
		return true
	case lastLineOff:
		return false
	default:
		return geom.LineSize > 4
	}
}

// hitLastStore builds the spec's hit-last store for a validated
// direct-mapped geometry.
func (s Spec) hitLastStore(geom cache.Geometry) (core.HitLastStore, error) {
	if s.hashed {
		return core.NewHashedStore(int(geom.Lines())*s.bits, !s.coldMiss)
	}
	return core.NewTableStore(!s.coldMiss), nil
}

// Build constructs the spec's simulator for the given geometry. The
// geometry's Ways field is ignored by the direct-mapped families (dm,
// de, de-stream, opt, victim, stream) and overridden by ways= for
// lru/fifo. Direct families return a simulator that only supports the
// WindowDirect path (Access panics).
func (s Spec) Build(geom cache.Geometry) (cache.Simulator, error) {
	switch s.family {
	case "dm":
		g := geom
		g.Ways = 1
		return cache.NewDirectMapped(g)
	case "de":
		g := geom
		g.Ways = 1
		if err := g.Validate(); err != nil {
			return nil, err
		}
		store, err := s.hitLastStore(g)
		if err != nil {
			return nil, err
		}
		return core.New(core.Config{
			Geometry:    g,
			Store:       store,
			UseLastLine: s.lastLineEnabled(g),
			StickyMax:   s.sticky,
		})
	case "de-stream":
		g := geom
		g.Ways = 1
		if err := g.Validate(); err != nil {
			return nil, err
		}
		store, err := s.hitLastStore(g)
		if err != nil {
			return nil, err
		}
		// NewExclusion owns the last-line decision (it forces the buffer
		// off; the stream buffer subsumes it).
		return stream.NewExclusion(core.Config{
			Geometry:  g,
			Store:     store,
			StickyMax: s.sticky,
		}, s.depth)
	case "opt":
		g := geom
		g.Ways = 1
		if err := g.Validate(); err != nil {
			return nil, err
		}
		return &optSim{geom: g, lastLine: s.lastLineEnabled(g)}, nil
	case "lru", "fifo":
		g := geom
		g.Ways = s.ways
		pol := cache.LRU
		if s.family == "fifo" {
			pol = cache.FIFO
		}
		return cache.NewSetAssoc(g, pol, 1)
	case "victim":
		return victim.New(geom, s.entries)
	case "stream":
		return stream.New(geom, s.depth)
	}
	return nil, fmt.Errorf("policy: cannot build zero or unregistered Spec %q (use Parse)", s.family)
}

// MustBuild parses specStr and builds it for geom, panicking on either
// error; for tables of experiment configurations.
func MustBuild(specStr string, geom cache.Geometry) cache.Simulator {
	sim, err := MustParse(specStr).Build(geom)
	if err != nil {
		panic(err)
	}
	return sim
}
