package experiments

import (
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/table"
	"repro/internal/trace"
)

// The two-level experiments of §5 use the paper's configuration: a 32KB
// L1 with 4B lines in front of an L2 of 1–64× the L1 size.

// HierL1 is the L1 geometry of Figures 7–9.
var HierL1 = cache.DM(32<<10, 4)

// HierRatios is the relative-L2-size axis of Figure 7.
var HierRatios = []int{1, 2, 4, 8, 16, 32, 64}

// HierResult holds, per strategy, the L1 miss rate and the global L2 miss
// rate (both suite averages, in percent) at each L2:L1 size ratio.
type HierResult struct {
	// Strategies in presentation order.
	Strategies []hierarchy.Strategy
	// L1 and L2Global are indexed like Strategies.
	L1       []metrics.Series
	L2Global []metrics.Series
	// OptL1 is the flat optimal-direct-mapped L1 reference (percent).
	OptL1 float64
}

// hierSweep runs every strategy over every ratio once; Figures 7, 8, and
// 9 are views of this sweep.
func hierSweep(w *Workloads) HierResult {
	res := HierResult{
		Strategies: []hierarchy.Strategy{
			hierarchy.Baseline, hierarchy.AssumeHit, hierarchy.AssumeMiss, hierarchy.Hashed,
		},
	}
	for _, st := range res.Strategies {
		l1 := metrics.Series{Name: st.String()}
		l2 := metrics.Series{Name: st.String()}
		for _, ratio := range HierRatios {
			l2geom := cache.DM(HierL1.Size*uint64(ratio), HierL1.LineSize)
			n := len(w.Names())
			l1rates, l2rates := make([]float64, n), make([]float64, n)
			forEachBenchmark(w, instrKind, func(i int, refs []trace.Ref) {
				sys := hierarchy.Must(hierarchy.Config{
					L1:       HierL1,
					L2:       l2geom,
					Strategy: st,
					// §5: the hashed table is sized so its bits match the
					// swept L2 capacity ratio; the paper concludes four
					// bits per L1 line suffice.
					HashedBitsPerLine: ratio,
				})
				for _, ref := range refs {
					sys.Access(ref.Addr)
				}
				l1rates[i] = sys.L1Stats().MissRate()
				l2rates[i] = sys.GlobalL2MissRate()
			})
			l1.Points = append(l1.Points, metrics.Point{X: float64(ratio), Y: 100 * metrics.Mean(l1rates)})
			l2.Points = append(l2.Points, metrics.Point{X: float64(ratio), Y: 100 * metrics.Mean(l2rates)})
		}
		res.L1 = append(res.L1, l1)
		res.L2Global = append(res.L2Global, l2)
	}
	res.OptL1 = 100 * suiteMeans(w, instrKind, []uint64{HierL1.Size}, []uint64{HierL1.LineSize}, "opt:nolastline")[0]
	return res
}

// Fig07Result is Figure 7: L1 miss rate vs relative L2 size.
type Fig07Result struct{ HierResult }

// Fig07 reproduces Figure 7.
func Fig07(w *Workloads) Fig07Result { return Fig07Result{hierSweep(w)} }

// String renders the L1 view of the sweep.
func (r Fig07Result) String() string {
	var b strings.Builder
	t := table.New("Figure 7 — L1 miss rate vs relative L2 size (L1=32KB, b=4B)",
		append([]string{"L2/L1"}, names(r.Strategies)...)...)
	for i, ratio := range HierRatios {
		row := []string{kbx(ratio)}
		for s := range r.Strategies {
			row = append(row, pctf(r.L1[s].Points[i].Y))
		}
		t.AddRow(row...)
	}
	t.AddNote("optimal direct-mapped L1 reference: %s", pctf(r.OptL1))
	t.AddNote("paper: assume-hit is best for L1 but degenerates to direct-mapped at ratio 1;")
	t.AddNote("most of the benefit is reached once L2 >= 4x L1")
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(table.Chart{
		Title:   "Figure 7 (chart)",
		YLabel:  "L1 miss rate (%)",
		XFormat: func(x float64) string { return kbx(int(x)) },
		Series:  r.L1,
	}.String())
	return b.String()
}

// Fig08Result is Figure 8: global L2 miss rate vs L2 size.
type Fig08Result struct{ HierResult }

// Fig08 reproduces Figure 8.
func Fig08(w *Workloads) Fig08Result { return Fig08Result{hierSweep(w)} }

// String renders the L2 view of the sweep.
func (r Fig08Result) String() string {
	var b strings.Builder
	t := table.New("Figure 8 — global L2 miss rate vs L2 size (L1=32KB, b=4B)",
		append([]string{"L2 size"}, names(r.Strategies)...)...)
	for i, ratio := range HierRatios {
		row := []string{l2kb(ratio)}
		for s := range r.Strategies {
			row = append(row, pctf(r.L2Global[s].Points[i].Y))
		}
		t.AddRow(row...)
	}
	t.AddNote("global rate: L2 misses per CPU reference")
	t.AddNote("paper: assume-miss improves L2 most (maximum L1/L2 content difference); hashed also helps;")
	t.AddNote("assume-hit matches the plain direct-mapped hierarchy because its content is inclusive")
	b.WriteString(t.String())
	return b.String()
}

// Fig09Result is Figure 9: percentage improvement of the global L2 miss
// rate over the baseline hierarchy.
type Fig09Result struct{ HierResult }

// Fig09 reproduces Figure 9.
func Fig09(w *Workloads) Fig09Result { return Fig09Result{hierSweep(w)} }

// String renders the improvement view.
func (r Fig09Result) String() string {
	var b strings.Builder
	base := r.L2Global[0] // Baseline is first
	t := table.New("Figure 9 — % global L2 miss improvement vs L2 size (L1=32KB, b=4B)",
		append([]string{"L2 size"}, names(r.Strategies[1:])...)...)
	for i, ratio := range HierRatios {
		row := []string{l2kb(ratio)}
		for s := 1; s < len(r.Strategies); s++ {
			row = append(row, pctf(metrics.Reduction(base.Points[i].Y, r.L2Global[s].Points[i].Y)))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}

func names(sts []hierarchy.Strategy) []string {
	out := make([]string, len(sts))
	for i, s := range sts {
		out[i] = s.String()
	}
	return out
}

func kbx(ratio int) string { return "x" + strconv.Itoa(ratio) }

func l2kb(ratio int) string {
	return strconv.Itoa(int(HierL1.Size>>10)*ratio) + "K"
}
