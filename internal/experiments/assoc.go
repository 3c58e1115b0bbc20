package experiments

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/table"
)

// AssocResult is the extra motivation study (§1 of the paper):
// direct-mapped caches are chosen over set-associative ones for access
// time, at the price of conflict misses. The table shows how much of the
// direct-mapped ↔ 2-way-LRU miss-rate gap dynamic exclusion closes while
// keeping the direct-mapped access path.
type AssocResult struct {
	DM, DE, LRU2, LRU4 metrics.Series
}

// Assoc runs the associativity comparison over the standard size axis at
// 4-byte lines, once per Workloads; Amat views the same result.
func Assoc(w *Workloads) AssocResult { return w.assoc() }

func assocSweep(w *Workloads) AssocResult {
	sizes := standardSizes()
	avg := suiteMeans(w, instrKind, sizes, []uint64{4}, "dm", "de:nolastline", "lru:ways=2", "lru:ways=4")
	c := curves(avg, kb(sizes), "direct-mapped", "dynamic exclusion", "2-way LRU", "4-way LRU")
	return AssocResult{DM: c[0], DE: c[1], LRU2: c[2], LRU4: c[3]}
}

// GapClosed returns, at each size, the fraction (percent) of the
// DM→2-way-LRU miss gap that dynamic exclusion closes.
func (r AssocResult) GapClosed() metrics.Series {
	out := metrics.Series{Name: "gap closed by DE"}
	for i, p := range r.DM.Points {
		gap := p.Y - r.LRU2.Points[i].Y
		if gap <= 0 {
			out.Points = append(out.Points, metrics.Point{X: p.X, Y: 0})
			continue
		}
		closed := 100 * (p.Y - r.DE.Points[i].Y) / gap
		out.Points = append(out.Points, metrics.Point{X: p.X, Y: closed})
	}
	return out
}

// String renders the comparison.
func (r AssocResult) String() string {
	var b strings.Builder
	t := table.New("Extra — direct-mapped vs set-associative vs dynamic exclusion (b=4B)",
		"cache size", "direct-mapped", "dynamic excl", "2-way LRU", "4-way LRU", "DM→2way gap closed")
	gap := r.GapClosed()
	for i, p := range r.DM.Points {
		t.AddRow(kbLabel(p.X),
			pctf(p.Y), pctf(r.DE.Points[i].Y),
			pctf(r.LRU2.Points[i].Y), pctf(r.LRU4.Points[i].Y),
			pctf(gap.Points[i].Y))
	}
	t.AddNote("the paper's premise: direct-mapped wins on access time; DE recovers part of the")
	t.AddNote("conflict-miss gap to set-associative caches without lengthening the hit path")
	b.WriteString(t.String())
	return b.String()
}
