package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/table"
	"repro/internal/timing"
)

// AmatResult converts the associativity comparison into average memory
// access time using the timing model, reproducing the paper's §1
// argument end to end: the direct-mapped hit-time advantage, the
// set-associative miss-rate advantage, and dynamic exclusion taking the
// best of both.
type AmatResult struct {
	Model                  timing.Model
	DM, DE, LRU2, LRU4     metrics.Series
	BestSingle, BestAssoc  string // winners at the paper's 32KB point
	DESpeedupOverDMAt32K   float64
	DESpeedupOverLRU2At32K float64
}

// Amat computes AMAT curves from the Assoc miss-rate sweep, which it
// views without rerunning.
func Amat(w *Workloads) AmatResult {
	miss := Assoc(w)
	m := timing.Default()
	res := AmatResult{Model: m}
	res.DM.Name, res.DE.Name = "direct-mapped", "dynamic exclusion"
	res.LRU2.Name, res.LRU4.Name = "2-way LRU", "4-way LRU"
	conv := func(dst *metrics.Series, src metrics.Series, ways int) {
		for _, p := range src.Points {
			dst.Points = append(dst.Points, metrics.Point{
				X: p.X,
				Y: m.AMATSingle(ways, p.Y/100),
			})
		}
	}
	conv(&res.DM, miss.DM, 1)
	conv(&res.DE, miss.DE, 1) // DE keeps the direct-mapped hit path
	conv(&res.LRU2, miss.LRU2, 2)
	conv(&res.LRU4, miss.LRU4, 4)

	if dm, ok := res.DM.At(32); ok {
		if de, ok := res.DE.At(32); ok {
			res.DESpeedupOverDMAt32K = timing.Speedup(dm, de)
		}
	}
	if l2, ok := res.LRU2.At(32); ok {
		if de, ok := res.DE.At(32); ok {
			res.DESpeedupOverLRU2At32K = timing.Speedup(l2, de)
		}
	}
	return res
}

// String renders the AMAT table and chart.
func (r AmatResult) String() string {
	var b strings.Builder
	t := table.New("Extra — average memory access time in cycles (latencies L1=1 +0.5/way-doubling, L2=+10, mem=+40)",
		"cache size", "direct-mapped", "dynamic excl", "2-way LRU", "4-way LRU")
	for i, p := range r.DM.Points {
		t.AddRow(kbLabel(p.X),
			fmt.Sprintf("%.3f", p.Y), fmt.Sprintf("%.3f", r.DE.Points[i].Y),
			fmt.Sprintf("%.3f", r.LRU2.Points[i].Y), fmt.Sprintf("%.3f", r.LRU4.Points[i].Y))
	}
	t.AddNote("DE keeps the 1-cycle direct-mapped hit path; associative caches pay on every hit")
	t.AddNote("at 32KB: DE is %.3fx faster than plain direct-mapped and %.3fx vs 2-way LRU",
		r.DESpeedupOverDMAt32K, r.DESpeedupOverLRU2At32K)
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(table.Chart{
		Title:   "AMAT (chart)",
		YLabel:  "cycles per reference",
		XFormat: kbLabel,
		Series:  []metrics.Series{r.DM, r.DE, r.LRU2, r.LRU4},
	}.String())
	return b.String()
}
