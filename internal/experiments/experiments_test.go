package experiments

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// Small reference counts keep the test suite quick; the shape assertions
// below hold at this scale (verified against the full-size runs recorded
// in EXPERIMENTS.md).
const testRefs = 150_000

func testWorkloads(t *testing.T) *Workloads {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	return NewWorkloads(Config{Refs: testRefs})
}

func TestRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) != 18 {
		t.Errorf("registry has %d entries", len(reg))
	}
	seen := map[string]bool{}
	for _, r := range reg {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %q", r.ID)
		}
		seen[r.ID] = true
	}
	if _, ok := Lookup("fig03"); !ok {
		t.Error("Lookup(fig03) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
	if ids := IDs(); len(ids) != len(reg) {
		t.Errorf("IDs() = %v", ids)
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).refs() != 1_000_000 {
		t.Errorf("default refs = %d", (Config{}).refs())
	}
	if (Config{Refs: 5}).refs() != 5 {
		t.Error("explicit refs ignored")
	}
}

func TestWorkloadsCaching(t *testing.T) {
	w := testWorkloads(t)
	a := w.Instr("eqntott")
	b := w.Instr("eqntott")
	if &a[0] != &b[0] {
		t.Error("instruction stream not cached")
	}
	if len(a) != testRefs {
		t.Errorf("stream length %d", len(a))
	}
	w.Release()
	c := w.Instr("eqntott")
	if len(c) != len(a) {
		t.Error("release broke regeneration")
	}
	if len(w.Names()) != 10 {
		t.Errorf("Names = %v", w.Names())
	}
}

// TestWorkloadsConcurrent hammers the stream cache from many goroutines
// — the engine's workers do exactly this — and checks each stream is
// materialized once (same backing array for every caller). Run under
// -race this is the goroutine-safety proof for Workloads.
func TestWorkloadsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	w := NewWorkloads(Config{Refs: 20_000})
	names := w.Names()
	kinds := []kindOf{instrKind, dataKind, mixedKind}
	type got struct{ first *trace.Ref }
	results := make([]got, len(names)*len(kinds)*4)
	var wg sync.WaitGroup
	for g := range results {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			kind := kinds[(g/len(names))%len(kinds)]
			refs := kind(w, names[g%len(names)])
			results[g] = got{first: &refs[0]}
		}()
	}
	wg.Wait()
	// Every goroutine that asked for the same (kind, name) must share one
	// materialization.
	byStream := map[int]*trace.Ref{}
	for g, r := range results {
		key := g % (len(names) * len(kinds))
		if prev, ok := byStream[key]; ok && prev != r.first {
			t.Fatalf("stream %d materialized more than once", key)
		}
		byStream[key] = r.first
	}
}

func TestSeedOffsetVariesWorkloadsButKeepsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	base := NewWorkloads(Config{Refs: 100_000})
	if len(base.Suite()) != 10 {
		t.Fatalf("Suite() = %d", len(base.Suite()))
	}
	alt := NewWorkloads(Config{Refs: 100_000, SeedOffset: 7})
	a := base.Instr("gcc")
	b := alt.Instr("gcc")
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed offset did not change the stream")
	}
	// Shape: DE still between OPT and DM on the shifted suite.
	r := Fig03(alt)
	if r.AvgOPT > r.AvgDE || r.AvgDE > r.AvgDM*1.05 {
		t.Errorf("shifted suite breaks ordering: %+v", r)
	}
}

func TestWorkloadsUnknownBenchmarkPanics(t *testing.T) {
	w := testWorkloads(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown benchmark")
		}
	}()
	w.Instr("quake")
}

func TestSec3MatchesAnalytic(t *testing.T) {
	r := Sec3(Config{})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SimDM != row.AnalyticDM {
			t.Errorf("%s: sim DM %v != analytic %v", row.Pattern, row.SimDM, row.AnalyticDM)
		}
		if row.SimOP != row.AnalyticOP {
			t.Errorf("%s: sim OPT %v != analytic %v", row.Pattern, row.SimOP, row.AnalyticOP)
		}
		if row.SimDE < row.SimOP {
			t.Errorf("%s: DE %v beat OPT %v", row.Pattern, row.SimDE, row.SimOP)
		}
	}
	out := r.String()
	if !strings.Contains(out, "within-loop") || !strings.Contains(out, "55.0%") {
		t.Errorf("render missing expected content:\n%s", out)
	}
}

func TestFig03Shape(t *testing.T) {
	w := testWorkloads(t)
	r := Fig03(w)
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.OP > row.DE+1e-12 {
			t.Errorf("%s: OPT %v > DE %v", row.Name, row.OP, row.DE)
		}
		if row.OP > row.DM+1e-12 {
			t.Errorf("%s: OPT %v > DM %v", row.Name, row.OP, row.DM)
		}
	}
	if r.AvgOPT > r.AvgDE || r.AvgDE > r.AvgDM*1.05+1e-9 {
		t.Errorf("averages out of order: DM %v DE %v OPT %v", r.AvgDM, r.AvgDE, r.AvgOPT)
	}
	if !strings.Contains(r.String(), "AVERAGE") {
		t.Error("render missing AVERAGE row")
	}
}

// countingCollector tallies finished cells and the references they
// simulated.
type countingCollector struct {
	mu    sync.Mutex
	cells int
	refs  uint64
}

func (c *countingCollector) CellStarted(engine.CellStart)     {}
func (c *countingCollector) CellAttempted(engine.CellAttempt) {}
func (c *countingCollector) CellFinished(f engine.CellFinish) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells++
	c.refs += f.Refs
}

// TestFig03ReportsEverySimulation checks that every registry-policy
// simulation reaches the Collector as a cell of its own: Figure 3 runs
// dm, de and opt over each of the ten benchmarks, so the collector must
// see 30 finished cells of one full stream each, not one cell per
// benchmark.
func TestFig03ReportsEverySimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	const refs = 5_000
	col := &countingCollector{}
	Fig03(NewWorkloads(Config{Refs: refs, Collector: col}))
	if col.cells != 30 || col.refs != 30*refs {
		t.Errorf("collector saw %d cells, %d refs; want 30 cells, %d refs", col.cells, col.refs, 30*refs)
	}
}

// TestSec3RunsOnTheRunsConfig runs the registry's sec3 entry as
// dynex-experiments does and requires its collector to see all 12
// simulations: 4 patterns × dm, de:cold=miss and opt:nolastline.
func TestSec3RunsOnTheRunsConfig(t *testing.T) {
	col := &countingCollector{}
	w := NewWorkloads(Config{Workers: 1, Collector: col})
	for _, r := range Registry() {
		if r.ID == "sec3" {
			r.Run(w)
		}
	}
	if col.cells != 12 {
		t.Errorf("collector saw %d sec3 cells, want 12", col.cells)
	}
}

func TestFig04And05Shape(t *testing.T) {
	w := testWorkloads(t)
	f4 := Fig04(w)
	if len(f4.DM.Points) != len(standardSizes()) {
		t.Fatalf("points = %d", len(f4.DM.Points))
	}
	for i := range f4.DM.Points {
		dm, de, op := f4.DM.Points[i].Y, f4.DE.Points[i].Y, f4.OPT.Points[i].Y
		if op > de+1e-9 || op > dm+1e-9 {
			t.Errorf("size %v: OPT above DE/DM: %v %v %v", f4.DM.Points[i].X, dm, de, op)
		}
	}
	// Miss rates must decline with cache size (monotone workloads).
	last := f4.DM.Points[0].Y
	for _, p := range f4.DM.Points[1:] {
		if p.Y > last+1e-9 {
			t.Errorf("DM miss rate rose with size at %v", p.X)
		}
		last = p.Y
	}
	f5 := Fig05FromFig04(f4)
	_, peak := f5.DE.PeakY()
	if peak < 5 {
		t.Errorf("DE peak reduction %.1f%%, want >= 5%%", peak)
	}
	_, optPeak := f5.OPT.PeakY()
	if optPeak < peak {
		t.Errorf("OPT peak %v below DE peak %v", optPeak, peak)
	}
	if !strings.Contains(f5.String(), "Figure 5") {
		t.Error("render broken")
	}
	if !strings.Contains(f4.String(), "Figure 4") {
		t.Error("render broken")
	}
}

func TestFig07To09Shape(t *testing.T) {
	w := testWorkloads(t)
	r := Fig07(w)
	if len(r.Strategies) != 4 || len(r.L1) != 4 || len(r.L2Global) != 4 {
		t.Fatalf("strategy series missing: %+v", r.Strategies)
	}
	// Baseline L1 rate is flat (no dependence on L2 size).
	base := r.L1[0]
	for _, p := range base.Points[1:] {
		if p.Y != base.Points[0].Y {
			t.Errorf("baseline L1 rate varies with L2 size: %v", base.Points)
		}
	}
	// At a large L2, every DE strategy beats the baseline L1.
	lastIdx := len(HierRatios) - 1
	for s := 1; s < len(r.Strategies); s++ {
		if r.L1[s].Points[lastIdx].Y >= base.Points[lastIdx].Y {
			t.Errorf("%v: L1 %.3f%% not below baseline %.3f%% at x64",
				r.Strategies[s], r.L1[s].Points[lastIdx].Y, base.Points[lastIdx].Y)
		}
	}
	// Paper: assume-hit at ratio 1 degenerates to ~direct-mapped.
	ah := r.L1[1].Points[0].Y
	if d := ah - base.Points[0].Y; d < -0.5 || d > 0.5 {
		t.Errorf("assume-hit@1x L1 %.3f%% vs baseline %.3f%%; want close", ah, base.Points[0].Y)
	}
	// Render both derived figures.
	if !strings.Contains(Fig08Result{r.HierResult}.String(), "Figure 8") {
		t.Error("fig08 render broken")
	}
	out9 := Fig09Result{r.HierResult}.String()
	if !strings.Contains(out9, "Figure 9") || strings.Contains(out9, "direct-mapped  ") {
		// Figure 9 lists only the DE strategies.
		t.Errorf("fig09 render:\n%s", out9)
	}
	if !strings.Contains(r.String(), "Figure 7") {
		t.Error("fig07 render broken")
	}
}

func TestFig11Shape(t *testing.T) {
	w := testWorkloads(t)
	r := Fig11(w)
	if len(r.DM.Points) != len(Fig11Sizes) {
		t.Fatalf("points = %d", len(r.DM.Points))
	}
	for i := range r.DM.Points {
		if r.OPT.Points[i].Y > r.DE.Points[i].Y+1e-9 {
			t.Errorf("line %v: OPT above DE", r.DM.Points[i].X)
		}
	}
	// DE improvement positive at 4B lines.
	if r.Reduction.Points[0].Y <= 0 {
		t.Errorf("no improvement at 4B lines: %v", r.Reduction.Points)
	}
	if !strings.Contains(r.String(), "Figure 11") {
		t.Error("render broken")
	}
}

func TestFig12Shape(t *testing.T) {
	w := testWorkloads(t)
	r := Fig12(w)
	_, peak := r.Reduction.PeakY()
	if peak <= 0 {
		t.Errorf("no positive improvement at b=16B: %v", r.Reduction.Points)
	}
	if !strings.Contains(r.String(), "Figure 12") {
		t.Error("render broken")
	}
}

func TestFig13Shape(t *testing.T) {
	w := testWorkloads(t)
	r := Fig13(w)
	if r.DESizePct <= 0 || r.DESizePct > 10 {
		t.Errorf("DE size overhead %.2f%%, want a few percent", r.DESizePct)
	}
	if r.DEMissPct <= 0 {
		t.Errorf("DE did not reduce misses: %+v", r)
	}
	if r.BigDM >= r.BaseDM {
		t.Errorf("doubling capacity did not help: %+v", r)
	}
	if r.Efficiency() <= 1 {
		t.Errorf("efficiency %.2f, want > 1 (paper ~15)", r.Efficiency())
	}
	if !strings.Contains(r.String(), "Figure 13") {
		t.Error("render broken")
	}
}

func TestFig14And15Shape(t *testing.T) {
	w := testWorkloads(t)
	r14 := Fig14(w)
	for i := range r14.DM.Points {
		if r14.OPT.Points[i].Y > r14.DE.Points[i].Y+1e-9 {
			t.Errorf("data: OPT above DE at %v", r14.DM.Points[i].X)
		}
	}
	r15 := Fig15(w)
	if len(r15.DM.Points) != len(standardSizes()) {
		t.Fatalf("fig15 points = %d", len(r15.DM.Points))
	}
	if !strings.Contains(r14.String(), "Figure 14") || !strings.Contains(r15.String(), "Figure 15") {
		t.Error("render broken")
	}
}

func TestAblationsRender(t *testing.T) {
	w := testWorkloads(t)
	r := Ablations(w)
	out := r.String()
	for _, want := range []string{"sticky depth", "hashed hit-last", "cold-start", "victim", "last-line"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations missing %q", want)
		}
	}
}

func TestEveryResultMarshalsToJSON(t *testing.T) {
	// The -json output mode of cmd/dynex-experiments marshals each result
	// struct directly; every registered experiment must survive that.
	w := testWorkloads(t)
	for _, r := range Registry() {
		res := r.Run(w)
		data, err := json.Marshal(res)
		if err != nil {
			t.Errorf("%s: marshal failed: %v", r.ID, err)
			continue
		}
		if len(data) < 10 {
			t.Errorf("%s: suspiciously empty JSON: %s", r.ID, data)
		}
	}
}

func TestDeOverheadPct(t *testing.T) {
	got := deOverheadPct(fig13Base)
	// 8KB/16B: 512 lines of 128+19+1 bits; +6 bits/line +157-bit buffer.
	if got < 3 || got > 6 {
		t.Errorf("overhead = %.2f%%, want 3-6%%", got)
	}
}
