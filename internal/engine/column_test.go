package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// simColumn is a reference column: it drives one real per-cell
// simulator per member, so a grouped run must produce exactly what the
// per-cell path would.
type simColumn struct {
	sims []cache.Simulator
}

func newSimColumn(geoms []cache.Geometry) (Column, error) {
	c := &simColumn{}
	for _, g := range geoms {
		sim, err := cache.NewDirectMapped(g)
		if err != nil {
			return nil, err
		}
		c.sims = append(c.sims, sim)
	}
	return c, nil
}

func (c *simColumn) Batch(refs []trace.Ref) {
	for _, sim := range c.sims {
		for i := range refs {
			sim.Access(refs[i].Addr)
		}
	}
}

func (c *simColumn) Outcomes() []ColumnOutcome {
	outs := make([]ColumnOutcome, len(c.sims))
	for i, sim := range c.sims {
		outs[i] = ColumnOutcome{Stats: sim.Stats(), Extras: cache.SnapshotExtras(sim)}
	}
	return outs
}

// columnGrid builds a small grid of dm cells over nSizes sizes × nCols
// streams, plus one trailing singleton cell, with one group per stream.
func columnGrid(nSizes, nCols int) ([]Cell, []Group) {
	var cells []Cell
	var groups []Group
	for s := 0; s < nCols; s++ {
		refs := seqRefs(uint64(s*1000), 512)
		stream := func() ([]trace.Ref, error) { return refs, nil }
		var idx []int
		var geoms []cache.Geometry
		for k := 0; k < nSizes; k++ {
			geom := cache.DM(64<<k, 4)
			idx = append(idx, len(cells))
			geoms = append(geoms, geom)
			cells = append(cells, Cell{
				Label:    fmt.Sprintf("col%d/size%d", s, 64<<k),
				Geometry: geom,
				Stream:   stream,
				Policy:   dmPolicy,
			})
		}
		colGeoms := append([]cache.Geometry(nil), geoms...)
		groups = append(groups, Group{
			Indices:   idx,
			NewColumn: func() (Column, error) { return newSimColumn(colGeoms) },
		})
	}
	cells = append(cells, Cell{
		Label:    "singleton",
		Geometry: cache.DM(64, 4),
		Stream:   func() ([]trace.Ref, error) { return seqRefs(7, 256), nil },
		Policy:   dmPolicy,
	})
	return cells, groups
}

// TestRunGroupedMatchesRun pins the core contract: a grouped run's
// result table is indistinguishable from the cell-by-cell one.
func TestRunGroupedMatchesRun(t *testing.T) {
	cells, groups := columnGrid(4, 3)
	want, err := Run(context.Background(), cells, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunGrouped(context.Background(), cells, groups, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Label != want[i].Label || got[i].Stats != want[i].Stats || got[i].Err != nil {
			t.Errorf("cell %d: grouped %q %+v (err %v) != per-cell %q %+v",
				i, got[i].Label, got[i].Stats, got[i].Err, want[i].Label, want[i].Stats)
		}
	}
}

// TestRunGroupedValidation rejects malformed group sets before running
// anything.
func TestRunGroupedValidation(t *testing.T) {
	cells, _ := columnGrid(2, 1)
	mk := func() (Column, error) { return nil, errors.New("unused") }
	cases := []struct {
		name   string
		groups []Group
	}{
		{"empty indices", []Group{{NewColumn: mk}}},
		{"nil constructor", []Group{{Indices: []int{0, 1}}}},
		{"out of range", []Group{{Indices: []int{0, len(cells)}, NewColumn: mk}}},
		{"negative", []Group{{Indices: []int{-1, 0}, NewColumn: mk}}},
		{"overlap", []Group{{Indices: []int{0, 1}, NewColumn: mk}, {Indices: []int{1, 2}, NewColumn: mk}}},
	}
	for _, c := range cases {
		if _, err := RunGrouped(context.Background(), cells, c.groups, Options{}); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// panicColumn panics mid-batch, like a buggy kernel would.
type panicColumn struct{}

func (panicColumn) Batch([]trace.Ref)         { panic("kernel bug") }
func (panicColumn) Outcomes() []ColumnOutcome { return nil }

// TestRunGroupedPanicAttribution re-homes a column panic onto every
// member cell as its own CellPanicError, so failures attribute to
// individual cells.
func TestRunGroupedPanicAttribution(t *testing.T) {
	cells, groups := columnGrid(3, 1)
	groups[0].NewColumn = func() (Column, error) { return panicColumn{}, nil }
	results, err := RunGrouped(context.Background(), cells, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range groups[0].Indices {
		var pe *CellPanicError
		if !errors.As(results[i].Err, &pe) {
			t.Fatalf("cell %d: err %v, want CellPanicError", i, results[i].Err)
		}
		if pe.Label != cells[i].Label {
			t.Errorf("cell %d: panic labeled %q, want its own label %q", i, pe.Label, cells[i].Label)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("cell %d: panic carries no stack", i)
		}
	}
	if last := results[len(results)-1]; last.Err != nil {
		t.Errorf("singleton outside the group failed too: %v", last.Err)
	}
}

// TestRunGroupedRetry retries a whole column unit on a transient
// failure and reports the shared attempt count on every member.
func TestRunGroupedRetry(t *testing.T) {
	cells, groups := columnGrid(2, 1)
	fails := 2
	inner := groups[0].NewColumn
	groups[0].NewColumn = func() (Column, error) {
		if fails > 0 {
			fails--
			return nil, &transientErr{n: 2 - fails}
		}
		return inner()
	}
	results, err := RunGrouped(context.Background(), cells, groups, Options{
		Retry: Retry{Attempts: 3, BaseDelay: 1, MaxDelay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range groups[0].Indices {
		if results[i].Err != nil {
			t.Fatalf("cell %d: %v after retries", i, results[i].Err)
		}
		if results[i].Attempts != 3 {
			t.Errorf("cell %d: attempts = %d, want 3", i, results[i].Attempts)
		}
	}
}

// shortColumn returns fewer outcomes than the group has members.
type shortColumn struct{}

func (shortColumn) Batch([]trace.Ref)         {}
func (shortColumn) Outcomes() []ColumnOutcome { return make([]ColumnOutcome, 1) }

// TestRunGroupedOutcomeMismatch turns a kernel that mis-counts its
// members into per-cell errors, never into silently wrong rows.
func TestRunGroupedOutcomeMismatch(t *testing.T) {
	cells, groups := columnGrid(3, 1)
	groups[0].NewColumn = func() (Column, error) { return shortColumn{}, nil }
	results, err := RunGrouped(context.Background(), cells, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range groups[0].Indices {
		if results[i].Err == nil {
			t.Errorf("cell %d: no error from a 1-outcome column over 3 members", i)
		}
	}
}

// TestRunGroupedCollectorPerCell checks that a column unit still emits
// started/attempted/finished events for every member cell.
func TestRunGroupedCollectorPerCell(t *testing.T) {
	cells, groups := columnGrid(3, 2)
	rec := &recordingCollector{}
	results, err := RunGrouped(context.Background(), cells, groups, Options{Collector: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.starts) != len(cells) || len(rec.attempts) != len(cells) || len(rec.finishes) != len(cells) {
		t.Fatalf("events: %d starts, %d attempts, %d finishes; want %d each",
			len(rec.starts), len(rec.attempts), len(rec.finishes), len(cells))
	}
	seen := map[int]bool{}
	for _, f := range rec.finishes {
		if f.Outcome != OutcomeOK {
			t.Errorf("cell %d: outcome %q", f.Index, f.Outcome)
		}
		if f.Refs == 0 {
			t.Errorf("cell %d: zero refs in finish event", f.Index)
		}
		seen[f.Index] = true
	}
	if len(seen) != len(cells) {
		t.Errorf("finish events cover %d distinct cells, want %d", len(seen), len(cells))
	}
}

// TestRunGroupedCancelled marks group members with the context error
// when the run is cancelled before they start.
func TestRunGroupedCancelled(t *testing.T) {
	cells, groups := columnGrid(3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunGrouped(ctx, cells, groups, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %d: err %v, want context.Canceled", i, r.Err)
		}
	}
}

// recordingCollector is a goroutine-safe event sink.
type recordingCollector struct {
	mu       sync.Mutex
	starts   []CellStart
	attempts []CellAttempt
	finishes []CellFinish
}

func (c *recordingCollector) CellStarted(e CellStart) {
	c.mu.Lock()
	c.starts = append(c.starts, e)
	c.mu.Unlock()
}

func (c *recordingCollector) CellAttempted(e CellAttempt) {
	c.mu.Lock()
	c.attempts = append(c.attempts, e)
	c.mu.Unlock()
}

func (c *recordingCollector) CellFinished(e CellFinish) {
	c.mu.Lock()
	c.finishes = append(c.finishes, e)
	c.mu.Unlock()
}
