package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
)

// TestParseDirective pins the grammar dynex-sweep's -inject and
// dynex-serve's JobSpec.Inject share: N is the whole rest of
// stream-fail=N and must be positive; SUBSTR must be non-empty.
func TestParseDirective(t *testing.T) {
	for s, want := range map[string]Directive{
		"":              {},
		"stream-fail=3": {StreamFail: 3},
		"panic=/opt":    {Panic: "/opt"},
		"panic=a=b":     {Panic: "a=b"},
	} {
		if got, err := ParseDirective(s); err != nil || got != want {
			t.Errorf("ParseDirective(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	for _, bad := range []string{"x", "=x", "stream-fail", "stream-fail=", "stream-fail=zero",
		"stream-fail=3abc", "stream-fail=0", "stream-fail=-1", "panic", "panic="} {
		if _, err := ParseDirective(bad); err == nil {
			t.Errorf("ParseDirective(%q) accepted a malformed directive", bad)
		}
	}
}

// directivePlan is a two-source plan with Policy (dm) and Direct (opt)
// cells.
func directivePlan(t *testing.T) grid.Plan {
	t.Helper()
	sources, err := grid.BenchSources([]string{"gcc", "li"}, "instr", 2000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := grid.Spec{Sources: sources, Kind: "instr", Refs: 2000,
		Sizes: []uint64{1024, 4096}, Lines: []uint64{4}, Policies: []string{"dm", "opt"}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDirectiveApply pins the directive's one meaning: stream-fail=N
// gives every source a budget of N of its own, shared by its cells, and
// panic=SUBSTR makes matching Policy and Direct cells panic and names
// them to the run's skip.
func TestDirectiveApply(t *testing.T) {
	plan := directivePlan(t)
	if skip := (Directive{}).Apply(&plan); skip != nil {
		t.Error("the zero directive returned a skip")
	}
	if skip := (Directive{StreamFail: 2}).Apply(&plan); skip != nil {
		t.Error("stream-fail returned a skip")
	}
	perSource := len(plan.Cells) / len(plan.Spec.Sources)
	for src := range plan.Spec.Sources {
		for call := 0; call < 4; call++ {
			// Rotate over the source's cells: they share its budget.
			cell := plan.Cells[src*perSource+call%perSource]
			if _, err := cell.Stream(); (err != nil) != (call < 2) {
				t.Errorf("%s: stream call %d err = %v, want failure only on the first 2", cell.Label, call, err)
			}
		}
	}

	plan = directivePlan(t)
	skip := (Directive{Panic: "gcc/4096"}).Apply(&plan)
	results, err := engine.Run(context.Background(), plan.Cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	panicked := 0
	for i, r := range results {
		match := strings.Contains(plan.Cells[i].Label, "gcc/4096")
		if skip(i) != match {
			t.Errorf("%s: skip = %v, want %v", r.Label, skip(i), match)
		}
		var pe *engine.CellPanicError
		if errors.As(r.Err, &pe) != match {
			t.Errorf("%s: err = %v, want a panic only where the label matches", r.Label, r.Err)
		}
		if match {
			panicked++
		}
	}
	if panicked != 2 { // gcc/4096/4/dm (Policy) and gcc/4096/4/opt (Direct)
		t.Errorf("%d cells matched, want 2", panicked)
	}
}
