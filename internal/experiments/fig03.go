package experiments

import (
	"strings"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/table"
)

// Fig03Geom is the paper's Figure 3 configuration: a 32KB instruction
// cache with 4B lines.
var Fig03Geom = cache.DM(32<<10, 4)

// Fig03Result holds per-benchmark instruction-cache miss rates for the
// three policies.
type Fig03Result struct {
	Rows []Fig03Row
	// Averages across the suite (fractions).
	AvgDM, AvgDE, AvgOPT float64
}

// Fig03Row is one benchmark's rates (fractions).
type Fig03Row struct {
	Name       string
	DM, DE, OP float64
}

// Fig03 reproduces Figure 3: instruction cache performance per benchmark
// for a normal direct-mapped cache, dynamic exclusion, and an optimal
// direct-mapped cache.
func Fig03(w *Workloads) Fig03Result {
	rates := runGrid(w.cfg, w.sources(instrKind), []uint64{Fig03Geom.Size}, []uint64{Fig03Geom.LineSize},
		figurePolicies(false)...)
	var res Fig03Result
	for i, name := range w.Names() {
		res.Rows = append(res.Rows, Fig03Row{Name: name, DM: rates[3*i], DE: rates[3*i+1], OP: rates[3*i+2]})
	}
	avg := means(rates, len(res.Rows))
	res.AvgDM, res.AvgDE, res.AvgOPT = avg[0], avg[1], avg[2]
	return res
}

// String renders the figure as a table.
func (r Fig03Result) String() string {
	t := table.New("Figure 3 — I-cache miss rate per benchmark (S=32KB, b=4B)",
		"benchmark", "direct-mapped", "dynamic excl", "optimal DM", "DE reduction")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			metrics.Pct(row.DM, 3), metrics.Pct(row.DE, 3), metrics.Pct(row.OP, 3),
			pctf(metrics.Reduction(row.DM, row.DE)))
	}
	t.AddRow("AVERAGE",
		metrics.Pct(r.AvgDM, 3), metrics.Pct(r.AvgDE, 3), metrics.Pct(r.AvgOPT, 3),
		pctf(metrics.Reduction(r.AvgDM, r.AvgDE)))
	t.AddNote("paper: high-miss benchmarks improve significantly; near-zero-miss benchmarks may see a slight cold-start increase")
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}

// pctf formats an already-percent value.
func pctf(v float64) string {
	return strings.TrimSpace(metrics.Pct(v/100, 1))
}
