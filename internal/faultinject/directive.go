package faultinject

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/trace"
)

// Directive is a parsed fault-injection directive: dynex-sweep's -inject
// flag and a dynex-serve JobSpec's Inject field, with one meaning for
// both (DESIGN.md §7).
type Directive struct {
	// StreamFail, when > 0, makes every source's stream fail
	// transiently this many times; each source has its own budget,
	// shared by its cells, so a retry clears the fault.
	StreamFail int
	// Panic, when non-empty, makes every cell whose label contains it
	// panic: a Policy cell on its first access, a Direct cell at once.
	Panic string
}

// ParseDirective parses "stream-fail=N" (N a positive integer) or
// "panic=SUBSTR" (SUBSTR non-empty); "" injects nothing.
func ParseDirective(s string) (Directive, error) {
	if s == "" {
		return Directive{}, nil
	}
	mode, arg, _ := strings.Cut(s, "=")
	switch mode {
	case "stream-fail":
		if n, err := strconv.Atoi(arg); err == nil && n > 0 {
			return Directive{StreamFail: n}, nil
		}
	case "panic":
		if arg != "" {
			return Directive{Panic: arg}, nil
		}
	}
	return Directive{}, fmt.Errorf("faultinject: directive %q: want stream-fail=N or panic=SUBSTR", s)
}

// Apply wires the directive into plan's cells and returns the run's
// skip (grid.RunOptions.Skip), nil without panic=: a panic-injected
// cell must stay off columns, which never build its wrapped simulator.
func (d Directive) Apply(plan *grid.Plan) (skip func(planIdx int) bool) {
	cells := plan.Cells
	if d.StreamFail > 0 {
		// Plan cells are source-major: each source owns perSource cells.
		perSource := len(cells) / len(plan.Spec.Sources)
		var stream func() ([]trace.Ref, error)
		for i := range cells {
			if i%perSource == 0 {
				stream = FlakyStream(cells[i].Stream, NewBudget(d.StreamFail))
			}
			cells[i].Stream = stream
		}
	}
	if d.Panic == "" {
		return nil
	}
	skip = func(i int) bool { return strings.Contains(cells[i].Label, d.Panic) }
	for i := range cells {
		switch c := &cells[i]; {
		case !skip(i): // not injected
		case c.Policy != nil:
			inner := c.Policy
			c.Policy = func(g cache.Geometry) (cache.Simulator, error) {
				sim, err := inner(g)
				if err != nil {
					return nil, err
				}
				return NewPanicSim(sim, 1), nil
			}
		case c.Direct != nil:
			c.Direct = func([]trace.Ref, cache.Geometry) (cache.Stats, error) {
				panic("faultinject: injected panic in direct cell")
			}
		}
	}
	return skip
}
