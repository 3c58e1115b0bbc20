package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/table"
)

// Fig11Sizes is the line-size axis of Figure 11.
var Fig11Sizes = []uint64{4, 8, 16, 32, 64}

// Fig11CacheSize is the fixed cache size of Figures 11 and 13 (32KB).
const Fig11CacheSize = 32 << 10

// Fig11Result holds suite-average miss rates (percent) per line size for
// the three policies. Dynamic exclusion and the optimal cache both use
// the §6 last-line buffer so excluded lines keep their spatial locality.
type Fig11Result struct {
	DM, DE, OPT metrics.Series
	// Reduction is the DE %-improvement at each line size.
	Reduction metrics.Series
}

// Fig11 reproduces Figure 11: instruction-cache miss rate versus line
// size at a fixed 32KB capacity.
func Fig11(w *Workloads) Fig11Result {
	avg := suiteMeans(w, instrKind, []uint64{Fig11CacheSize}, Fig11Sizes, figurePolicies(true)...)
	xs := make([]float64, len(Fig11Sizes))
	for i, line := range Fig11Sizes {
		xs[i] = float64(line)
	}
	c := curves(avg, xs, figureCurves...)
	return Fig11Result{DM: c[0], DE: c[1], OPT: c[2], Reduction: metrics.ReductionSeries("DE reduction", c[0], c[1])}
}

// String renders the line-size sweep.
func (r Fig11Result) String() string {
	var b strings.Builder
	t := table.New("Figure 11 — I-cache miss rate vs line size (S=32KB, last-line buffer)",
		"line size", "direct-mapped", "dynamic excl", "optimal DM", "DE reduction")
	for i, p := range r.DM.Points {
		t.AddRow(fmt.Sprintf("%gB", p.X),
			pctf(p.Y), pctf(r.DE.Points[i].Y), pctf(r.OPT.Points[i].Y),
			pctf(r.Reduction.Points[i].Y))
	}
	t.AddNote("paper: the %% improvement declines with line size (internal fragmentation adds conflicts)")
	b.WriteString(t.String())
	return b.String()
}
