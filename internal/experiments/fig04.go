package experiments

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/table"
)

// Fig04Result holds the suite-average miss-rate curves versus cache size
// at 4-byte lines for the three policies (percentages).
type Fig04Result struct {
	DM, DE, OPT metrics.Series
}

// Fig04 reproduces Figure 4: average instruction-cache miss rate across
// the benchmarks for a range of cache sizes (b = 4B). The sweep runs
// once per Workloads; Figure 5 and Sensitivity view the same result.
func Fig04(w *Workloads) Fig04Result { return w.fig04() }

func fig04Sweep(w *Workloads) Fig04Result {
	dm, de, op := sweepAverages(w, instrKind, standardSizes(), 4, false)
	return Fig04Result{DM: dm, DE: de, OPT: op}
}

// String renders the table and an ASCII version of the figure.
func (r Fig04Result) String() string {
	var b strings.Builder
	t := table.New("Figure 4 — average I-cache miss rate vs cache size (b=4B)",
		"cache size", "direct-mapped", "dynamic excl", "optimal DM")
	for i, p := range r.DM.Points {
		t.AddRow(kbLabel(p.X),
			pctf(p.Y), pctf(r.DE.Points[i].Y), pctf(r.OPT.Points[i].Y))
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(table.Chart{
		Title:   "Figure 4 (chart)",
		YLabel:  "average miss rate (%)",
		XFormat: kbLabel,
		Series:  []metrics.Series{r.DM, r.DE, r.OPT},
	}.String())
	return b.String()
}

// Fig05Result holds the percentage miss-rate reduction curves relative to
// the conventional direct-mapped cache.
type Fig05Result struct {
	DE, OPT metrics.Series
}

// Fig05 reproduces Figure 5: the percentage reduction from the normal
// direct-mapped miss rate for dynamic exclusion and for the optimal
// direct-mapped cache, versus cache size. It is a view of Figure 4's
// sweep.
func Fig05(w *Workloads) Fig05Result {
	f4 := Fig04(w)
	return Fig05Result{
		DE:  metrics.ReductionSeries("dynamic exclusion", f4.DM, f4.DE),
		OPT: metrics.ReductionSeries("optimal direct-mapped", f4.DM, f4.OPT),
	}
}

// String renders the reduction table, chart, and the peak improvement the
// paper headlines.
func (r Fig05Result) String() string {
	var b strings.Builder
	t := table.New("Figure 5 — % miss-rate reduction vs cache size (b=4B)",
		"cache size", "dynamic excl", "optimal DM")
	for i, p := range r.DE.Points {
		t.AddRow(kbLabel(p.X), pctf(p.Y), pctf(r.OPT.Points[i].Y))
	}
	x, y := r.DE.PeakY()
	t.AddNote("dynamic exclusion peaks at %.1f%% at %gKB (paper: 37%% at 32KB)", y, x)
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(table.Chart{
		Title:   "Figure 5 (chart)",
		YLabel:  "miss-rate reduction (%)",
		XFormat: kbLabel,
		Series:  []metrics.Series{r.DE, r.OPT},
	}.String())
	return b.String()
}
