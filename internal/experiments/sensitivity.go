package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/table"
)

// SensitivityResult answers the central validity question of a
// synthetic-workload reproduction: do the headline conclusions depend on
// the particular random program structures, or only on the structural
// parameters? It re-runs the Figure 5 sweep (DE miss-rate reduction vs
// cache size, b=4B) on several seed-shifted suites and reports the spread
// at every size.
type SensitivityResult struct {
	// Offsets are the workload seed offsets evaluated (0 = canonical).
	Offsets []int64
	// Curves[i] is the DE-reduction curve for Offsets[i] (percent).
	Curves []metrics.Series
	// Min, Mean, Max aggregate the curves per cache size.
	Min, Mean, Max metrics.Series
}

// sensitivityOffsets are the seed shifts evaluated.
var sensitivityOffsets = []int64{0, 1000, 2000}

// Sensitivity runs the Figure 5 reduction sweep across seed-shifted
// suites. The passed workloads supply the reference count and the
// canonical (offset 0) curve, a view of their Figure 4 sweep; shifted
// suites are built fresh.
func Sensitivity(w *Workloads) SensitivityResult {
	res := SensitivityResult{Offsets: sensitivityOffsets}
	for _, off := range res.Offsets {
		ws := w
		if off != 0 {
			cfg := w.Config()
			cfg.SeedOffset = off
			ws = NewWorkloads(cfg)
		}
		f5 := Fig05(ws)
		curve := f5.DE
		curve.Name = fmt.Sprintf("seed+%d", off)
		res.Curves = append(res.Curves, curve)
	}
	res.Min = metrics.Series{Name: "min"}
	res.Mean = metrics.Series{Name: "mean"}
	res.Max = metrics.Series{Name: "max"}
	for i, p := range res.Curves[0].Points {
		var ys []float64
		for _, c := range res.Curves {
			ys = append(ys, c.Points[i].Y)
		}
		lo, hi := ys[0], ys[0]
		for _, y := range ys[1:] {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		res.Min.Points = append(res.Min.Points, metrics.Point{X: p.X, Y: lo})
		res.Mean.Points = append(res.Mean.Points, metrics.Point{X: p.X, Y: metrics.Mean(ys)})
		res.Max.Points = append(res.Max.Points, metrics.Point{X: p.X, Y: hi})
	}
	return res
}

// String renders the spread table.
func (r SensitivityResult) String() string {
	t := table.New("Extra — seed sensitivity of the Figure 5 DE reduction (b=4B)",
		"cache size", "min", "mean", "max")
	for i, p := range r.Mean.Points {
		t.AddRow(kbLabel(p.X),
			pctf(r.Min.Points[i].Y), pctf(p.Y), pctf(r.Max.Points[i].Y))
	}
	var peaks []string
	for _, c := range r.Curves {
		x, y := c.PeakY()
		peaks = append(peaks, fmt.Sprintf("%s: %.1f%% @ %gK", c.Name, y, x))
	}
	t.AddNote("per-suite peaks: %s", strings.Join(peaks, "; "))
	t.AddNote("the rise-peak-fall shape must hold for every seed; the exact peak varies")
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}
