package experiments

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/patterns"
	"repro/internal/table"
)

// Sec3Result reproduces the analysis of Section 3: the three canonical
// conflict patterns (plus the (abc)ᴺ pattern of §4), each with the
// analytic conventional and optimal miss rates and the simulated
// conventional, dynamic exclusion, and optimal rates.
type Sec3Result struct {
	Rows []Sec3Row
}

// Sec3Row is one pattern's rates (fractions, not percentages).
type Sec3Row struct {
	Pattern                string
	AnalyticDM, AnalyticOP float64
	SimDM, SimDE, SimOP    float64
}

// Sec3 runs the pattern analysis on cfg's context, workers and
// collector. It takes no workloads: the patterns are closed-form, and
// cfg's stream length and seed offset do not apply to them.
func Sec3(cfg Config) Sec3Result {
	const size = 32 << 10
	cases := []struct {
		spec       patterns.Spec
		analyticDM float64
		analyticOP float64
	}{
		{patterns.BetweenLoops(10, 10), patterns.BetweenLoopsDM(10, 10), patterns.BetweenLoopsOPT(10, 10)},
		{patterns.LoopLevels(10, 10), patterns.LoopLevelsDM(10, 10), patterns.LoopLevelsOPT(10, 10)},
		{patterns.WithinLoop(10), patterns.WithinLoopDM(10), patterns.WithinLoopOPT(10)},
		{patterns.ThreeWay(10), patterns.ThreeWayDM(10), patterns.ThreeWayOPT(10)},
	}
	specs := make([]patterns.Spec, len(cases))
	for i, c := range cases {
		specs[i] = c.spec
	}
	rates := runGrid(cfg, patternSources(size, specs...), []uint64{size}, []uint64{4},
		"dm", "de:cold=miss", "opt:nolastline")
	var res Sec3Result
	for i, c := range cases {
		res.Rows = append(res.Rows, Sec3Row{
			Pattern:    c.spec.Name,
			AnalyticDM: c.analyticDM,
			AnalyticOP: c.analyticOP,
			SimDM:      rates[3*i],
			SimDE:      rates[3*i+1],
			SimOP:      rates[3*i+2],
		})
	}
	return res
}

// String renders the section's comparison table.
func (r Sec3Result) String() string {
	t := table.New("Section 3 — conflict patterns, miss rates (N = M = 10)",
		"pattern", "DM analytic", "DM sim", "DE sim", "OPT analytic", "OPT sim")
	for _, row := range r.Rows {
		t.AddRow(row.Pattern,
			metrics.Pct(row.AnalyticDM, 1), metrics.Pct(row.SimDM, 1),
			metrics.Pct(row.SimDE, 1),
			metrics.Pct(row.AnalyticOP, 1), metrics.Pct(row.SimOP, 1))
	}
	t.AddNote("DE runs cold (assume-miss); the paper guarantees DE within two misses of OPT per pattern")
	t.AddNote("three-way (abc)^N defeats the single sticky bit, as §4 reports")
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}
