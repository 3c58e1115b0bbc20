package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// recorder keeps the traced run's spans in memory until the run ends.
// Spans are recorded by the benchmark around its own calls into each
// layer; a nil recorder (the untraced mode) records nothing and costs
// one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []obs.Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id allocates a span ID (0 on a nil recorder).
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span with a pre-allocated ID.
func (r *recorder) add(id, parent uint64, kind, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, obs.Span{
		ID: id, Parent: parent, Kind: kind, Name: name,
		StartMS: ms(start.Sub(r.t0)), DurMS: ms(end.Sub(start)),
	})
}

// span times fn as a child of parent (0 opens a new job tree) and
// returns fn's error; fn receives the span's ID to parent its own
// children.
func (r *recorder) span(parent uint64, kind, name string, fn func(id uint64) error) error {
	if r == nil {
		return fn(0)
	}
	id := r.id()
	start := time.Now()
	err := fn(id)
	r.add(id, parent, kind, name, start, time.Now())
	return err
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []obs.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.Span(nil), r.spans...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// jobTrees splits spans into one tree per job (per root span).
func jobTrees(spans []obs.Span) ([]*obs.Node, error) {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	rootOf := func(id uint64) uint64 {
		for i := 0; i < len(spans) && parent[id] != 0; i++ {
			id = parent[id]
		}
		return id
	}
	byJob := map[uint64][]obs.Span{}
	var roots []uint64
	for _, s := range spans {
		root := rootOf(s.ID)
		if _, ok := byJob[root]; !ok {
			roots = append(roots, root)
		}
		byJob[root] = append(byJob[root], s)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	trees := make([]*obs.Node, 0, len(roots))
	for _, root := range roots {
		t, err := obs.BuildTree(byJob[root])
		if err != nil {
			return nil, err
		}
		trees = append(trees, t)
	}
	return trees, nil
}

// selfTimes sums each span kind's self time over the trees: a span's
// duration minus the part of it its children cover.
func selfTimes(trees []*obs.Node) map[string]float64 {
	out := map[string]float64{}
	var walk func(n *obs.Node)
	walk = func(n *obs.Node) {
		out[n.Kind] += n.DurMS - covered(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range trees {
		walk(t)
	}
	return out
}

// covered is the length of the union of n's children's intervals,
// clipped to n's own interval.
func covered(n *obs.Node) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		a, b := max(c.StartMS, n.StartMS), min(c.End(), n.End())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// describePath renders a critical path as "kind name (ms) > ...".
func describePath(path []*obs.Node) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[i] = fmt.Sprintf("%s %s (%.2f ms)", n.Kind, n.Name, n.DurMS)
	}
	return strings.Join(parts, " > ")
}

// traceSummary prints per-layer self time and the critical path of the
// slowest job tree of one workload.
func traceSummary(w io.Writer, workload string, spans []obs.Span) error {
	trees, err := jobTrees(spans)
	if err != nil {
		return err
	}
	self := selfTimes(trees)
	kinds := make([]string, 0, len(self))
	for k := range self {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return self[kinds[i]] > self[kinds[j]] })
	fmt.Fprintf(w, "# %s: self time by layer over %d traced jobs (%d spans):\n", workload, len(trees), len(spans))
	for _, k := range kinds {
		fmt.Fprintf(w, "#   %-20s %12.3f ms\n", k, self[k])
	}
	var slowest *obs.Node
	for _, t := range trees {
		if slowest == nil || t.DurMS > slowest.DurMS {
			slowest = t
		}
	}
	if slowest == nil {
		return nil
	}
	fmt.Fprintf(w, "# %s: critical path of the slowest job: %s\n", workload, describePath(obs.CriticalPath(slowest)))
	// The critical path follows the last child to finish; inside a
	// sequential job that is its last step, so the longest step's own
	// path is printed as well.
	var longest *obs.Node
	for _, c := range slowest.Children {
		if longest == nil || c.DurMS > longest.DurMS {
			longest = c
		}
	}
	if longest != nil {
		fmt.Fprintf(w, "# %s: critical path of its longest step: %s\n", workload, describePath(obs.CriticalPath(longest)))
	}
	return nil
}

// writeSpans writes the traced run's spans as JSON Lines after the last
// workload: an environment header, then one line per span.
func writeSpans(path string, env map[string]any, spans map[string][]obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	workloads := make([]string, 0, len(spans))
	for w := range spans {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		for _, s := range spans[w] {
			if err := enc.Encode(map[string]any{
				"workload": w, "id": s.ID, "parent": s.Parent, "kind": s.Kind,
				"name": s.Name, "start_ms": s.StartMS, "dur_ms": s.DurMS,
			}); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// unitCollector is the engine.Collector of a traced sweep job: one span
// per column unit or single cell, parented under the RunGrouped span,
// plus per-family wall and reference totals for the per-layer metrics.
type unitCollector struct {
	rec    *recorder
	parent uint64
	// first[i] marks cell i as the first member of its unit; members[i]
	// is that unit's member count (1 for a single cell).
	first   []bool
	members []int
	family  []string

	mu     sync.Mutex
	busy   time.Duration
	perFam map[string]*famCost
}

// famCost accumulates one (path, family) pair's unit wall time and the
// member-references it covered.
type famCost struct {
	wall       time.Duration
	memberRefs uint64
}

func newUnitCollector(rec *recorder, parent uint64, n int, groups []engine.Group, family []string) *unitCollector {
	c := &unitCollector{rec: rec, parent: parent, first: make([]bool, n), members: make([]int, n),
		family: family, perFam: map[string]*famCost{}}
	for i := range c.first {
		c.first[i], c.members[i] = true, 1
	}
	for _, g := range groups {
		for k, i := range g.Indices {
			c.first[i] = k == 0
			c.members[i] = len(g.Indices)
		}
	}
	return c
}

func (c *unitCollector) CellStarted(engine.CellStart)     {}
func (c *unitCollector) CellAttempted(engine.CellAttempt) {}

func (c *unitCollector) CellFinished(e engine.CellFinish) {
	if !c.first[e.Index] {
		return
	}
	end := time.Now()
	path := "cell"
	if c.members[e.Index] > 1 {
		path = "column"
	}
	key := path + "." + c.family[e.Index]
	c.rec.add(c.rec.id(), c.parent, path, e.Label, end.Add(-e.Wall), end)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy += e.Wall
	fc := c.perFam[key]
	if fc == nil {
		fc = &famCost{}
		c.perFam[key] = fc
	}
	fc.wall += e.Wall
	fc.memberRefs += e.Refs * uint64(c.members[e.Index])
}
