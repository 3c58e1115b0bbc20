package experiments

import (
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/writepolicy"
)

// WritesResult measures the write-path consequence of dynamic exclusion
// on data caches: stores to bypassed lines cannot be absorbed by a
// write-back cache and go straight to the next level. Rates are suite
// averages over the data streams; traffic is in words per 1000
// references.
type WritesResult struct {
	Geom cache.Geometry
	Rows []WritesRow
}

// WritesRow is one configuration's measurements.
type WritesRow struct {
	Config       string
	MissRate     float64
	TrafficPerKR float64 // words written to the next level per 1000 refs
}

// Writes runs the comparison on the data streams at the 8KB point.
func Writes(w *Workloads) WritesResult {
	res := WritesResult{Geom: ablGeom}
	lineWords := ablGeom.LineSize / 4

	type mk struct {
		name  string
		build func() *writepolicy.Cache
	}
	configs := []mk{
		{"direct-mapped, write-back", func() *writepolicy.Cache {
			c, err := writepolicy.WrapDM(cache.MustDirectMapped(ablGeom), writepolicy.WriteBack)
			if err != nil {
				panic(err)
			}
			return c
		}},
		{"direct-mapped, write-through", func() *writepolicy.Cache {
			c, err := writepolicy.WrapDM(cache.MustDirectMapped(ablGeom), writepolicy.WriteThrough)
			if err != nil {
				panic(err)
			}
			return c
		}},
		{"dynamic excl, write-back", func() *writepolicy.Cache {
			de := policy.MustBuild("de", ablGeom).(*core.Cache)
			c, err := writepolicy.WrapDE(de, writepolicy.WriteBack)
			if err != nil {
				panic(err)
			}
			return c
		}},
	}

	names := make([]string, len(configs))
	for c, cfg := range configs {
		names[c] = cfg.name
	}
	avg := forEachBenchmark(w, dataKind, names, func(c int, refs []trace.Ref) []float64 {
		wc := configs[c].build()
		wc.RunRefs(refs)
		traffic := 1000 * float64(wc.Writes().TrafficWords(lineWords)) / float64(len(refs))
		return []float64{wc.Stats().MissRate(), traffic}
	})
	for c, cfg := range configs {
		res.Rows = append(res.Rows, WritesRow{Config: cfg.name, MissRate: avg[2*c], TrafficPerKR: avg[2*c+1]})
	}
	return res
}

// String renders the table.
func (r WritesResult) String() string {
	t := table.New("Extra — data-cache write traffic (S=8KB, b=4B, data streams)",
		"config", "miss rate", "write words / 1000 refs")
	for _, row := range r.Rows {
		t.AddRowf(row.Config, metrics.Pct(row.MissRate, 3), row.TrafficPerKR)
	}
	t.AddNote("exclusion sends bypassed stores straight through but avoids dirty-line evictions;")
	t.AddNote("which effect wins depends on the workload — here DE lowers both misses and traffic")
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}
