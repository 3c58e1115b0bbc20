package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/patterns"
	"repro/internal/table"
)

// AblationsResult bundles the design-choice studies DESIGN.md calls out:
// sticky depth, hit-last storage size, cold-start default, the victim-
// cache alternative, and the last-line buffer.
type AblationsResult struct {
	Sticky    *table.Table
	Hashed    *table.Table
	ColdStart *table.Table
	Victim    *table.Table
	LastLine  *table.Table
}

// ablGeom is the conflict-heavy operating point used by the ablations.
var ablGeom = cache.DM(8<<10, 4)

// ablSizes and ablLines are ablGeom as a one-cell grid axis.
var ablSizes, ablLines = []uint64{ablGeom.Size}, []uint64{ablGeom.LineSize}

// Ablations runs all ablation studies. Configurations are policy specs,
// so the tables read as the exact strings a -policies flag would take,
// and each table runs one grid per stream set.
func Ablations(w *Workloads) AblationsResult {
	return AblationsResult{
		Sticky:    ablateSticky(w),
		Hashed:    ablateHashed(w),
		ColdStart: ablateColdStart(w),
		Victim:    ablateVictim(w),
		LastLine:  ablateLastLine(w),
	}
}

// ablateSticky sweeps the multi-sticky extension [McF91a]: deeper sticky
// counters lock residents against (abc)-style conflicts at the cost of
// longer training on plain alternation.
func ablateSticky(w *Workloads) *table.Table {
	t := table.New("Ablation — sticky depth (S=8KB, b=4B; plus the (abc)^50 pattern)",
		"config", "suite avg miss", "(abc)^50 miss")
	depths := []string{"sticky=1", "sticky=2", "sticky=4", "sticky=8"}
	var pols []string
	for _, d := range depths {
		pols = append(pols, "de:"+d)
	}
	avg := suiteMeans(w, instrKind, ablSizes, ablLines, append(pols, "dm")...)
	pat := runGrid(w.cfg, patternSources(ablGeom.Size, patterns.ThreeWay(50)), ablSizes, ablLines, pols...)
	for i, d := range depths {
		t.AddRow(d, metrics.Pct(avg[i], 3), metrics.Pct(pat[i], 1))
	}
	t.AddRow("direct-mapped", metrics.Pct(avg[len(depths)], 3), "100.0%")
	t.AddNote("paper §4: extra sticky bits fix (abc)^N but give mixed results overall")
	return t
}

// ablateHashed sweeps the hashed hit-last table size; the paper finds
// four bits per L1 line suffice.
func ablateHashed(w *Workloads) *table.Table {
	t := table.New("Ablation — hashed hit-last bits per cache line (S=8KB, b=4B)",
		"store", "suite avg miss")
	bitsPerLine := []int{1, 2, 4, 8, 16}
	var pols []string
	for _, b := range bitsPerLine {
		pols = append(pols, fmt.Sprintf("de:store=hashed*%d", b))
	}
	avg := suiteMeans(w, instrKind, ablSizes, ablLines, append(pols, "de")...)
	for i, b := range bitsPerLine {
		t.AddRow(fmt.Sprintf("hashed %d bits/line", b), metrics.Pct(avg[i], 3))
	}
	t.AddRow("ideal table", metrics.Pct(avg[len(bitsPerLine)], 3))
	return t
}

// ablateColdStart compares the two initial values of unknown hit-last
// bits (§5's assume-hit vs assume-miss, applied to the ideal table).
func ablateColdStart(w *Workloads) *table.Table {
	t := table.New("Ablation — cold-start default of the hit-last table (b=4B)",
		"cache size", "assume-miss", "assume-hit", "direct-mapped")
	sizes := []uint64{8 << 10, 32 << 10}
	avg := suiteMeans(w, instrKind, sizes, []uint64{4}, "de:cold=miss", "de", "dm")
	for i, size := range sizes {
		t.AddRow(kbLabel(float64(size)/1024), metrics.Pct(avg[3*i], 3), metrics.Pct(avg[3*i+1], 3), metrics.Pct(avg[3*i+2], 3))
	}
	t.AddNote("assume-miss can double first-touch misses of fresh loops (the paper's nasa7/tomcatv effect)")
	return t
}

// ablateVictim reproduces the related-work comparison (§2): a victim
// cache fixes small conflicting sets (data-like) while dynamic exclusion
// is most effective on instruction streams with many conflicting lines.
func ablateVictim(w *Workloads) *table.Table {
	t := table.New("Ablation — victim cache [Jou90] vs dynamic exclusion (S=8KB, b=4B)",
		"stream", "direct-mapped", "victim(4)", "victim(8)", "dynamic excl")
	for _, kind := range []struct {
		name string
		get  kindOf
	}{{"instructions", instrKind}, {"data", dataKind}} {
		avg := suiteMeans(w, kind.get, ablSizes, ablLines, "dm", "victim", "victim:entries=8", "de")
		t.AddRow(kind.name, metrics.Pct(avg[0], 3), metrics.Pct(avg[1], 3), metrics.Pct(avg[2], 3), metrics.Pct(avg[3], 3))
	}
	return t
}

// ablateLastLine isolates the §6 line-buffer alternatives at a 16-byte
// line size: no buffer, the last-line register (options 1/2), and the
// stream buffer (option 3).
func ablateLastLine(w *Workloads) *table.Table {
	t := table.New("Ablation — §6 line-buffer alternatives at b=16B (S=32KB)",
		"config", "suite avg miss")
	// At 16-byte lines the bare "de" spec auto-enables the buffer, so the
	// no-buffer arm must say nolastline explicitly.
	avg := suiteMeans(w, instrKind, []uint64{32 << 10}, []uint64{16}, "de:nolastline", "de:lastline", "de-stream", "dm")
	for i, config := range []string{"DE without buffer", "DE + last-line register", "DE + stream buffer (depth 4)", "direct-mapped"} {
		t.AddRow(config, metrics.Pct(avg[i], 3))
	}
	t.AddNote("without a buffer, excluding a multi-instruction line re-misses every sequential fetch (§6);")
	t.AddNote("the stream buffer additionally hides sequential compulsory misses (its hits are not L2 fetches)")
	return t
}

// String renders all ablation tables.
func (r AblationsResult) String() string {
	var b strings.Builder
	for _, t := range []*table.Table{r.Sticky, r.Hashed, r.ColdStart, r.Victim, r.LastLine} {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
