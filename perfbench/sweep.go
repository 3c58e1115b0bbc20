package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/policy"
)

// cellPolicies is every registered policy name, as -list-policies
// prints them.
func cellPolicies() []string { return policy.Names() }

// sweepJob is one set-up sweep workload: synthesized streams, the
// built and partitioned plan, and (on cells) the open journal.
type sweepJob struct {
	plan    grid.Plan
	groups  []engine.Group
	units   [][]int  // the engine's scheduling units, as cell indices
	lens    []int    // stream length per source
	family  []string // policy family per cell
	journal *checkpoint.Journal
	jpath   string
	synth   synthStats
	buildMS float64
	partMS  float64
}

func (j *sweepJob) close() {
	if j.journal != nil {
		j.journal.Close()
		os.Remove(j.jpath)
	}
}

// setupSweep is the timed set-up of a sweep workload: build the seeded
// programs, synthesize every source, build and partition the plan, and
// open the journal on cells.
func setupSweep(cfg config, workload string, rep int, rec *recorder) (*sweepJob, error) {
	j := &sweepJob{}
	err := rec.span(0, "job", workload+" setup", func(root uint64) error {
		gs, lens, err := sweepGrid(workload, cfg.seed, cfg.scale, rec, root, &j.synth)
		if err != nil {
			return err
		}
		for _, s := range gs.Sources {
			j.lens = append(j.lens, lens[s.Name])
		}
		start := time.Now()
		if err := rec.span(root, "plan.build", workload, func(uint64) error {
			j.plan, err = gs.Build()
			return err
		}); err != nil {
			return err
		}
		j.buildMS = ms(time.Since(start))
		all := make([]int, len(j.plan.Cells))
		for i := range all {
			all[i] = i
		}
		start = time.Now()
		_ = rec.span(root, "plan.partition", workload, func(uint64) error {
			j.groups = j.plan.Partition(all, nil)
			return nil
		})
		j.partMS = ms(time.Since(start))
		j.units = unitsOf(len(j.plan.Cells), j.groups)
		j.family = make([]string, len(j.plan.Cells))
		for i := range j.plan.Cells {
			sp, err := policy.Parse(gs.Policies[i%len(gs.Policies)])
			if err != nil {
				return err
			}
			j.family[i] = sp.Family()
		}
		if workload != "cells" {
			return nil
		}
		j.jpath = filepath.Join(cfg.out, fmt.Sprintf("journal-%d-%d.jsonl", os.Getpid(), rep))
		os.Remove(j.jpath)
		return rec.span(root, "checkpoint.open", workload, func(uint64) error {
			j.journal, err = checkpoint.Open(j.jpath)
			return err
		})
	})
	return j, err
}

// unitsOf lists the engine's scheduling units: each column group, then
// every cell outside a group on its own.
func unitsOf(n int, groups []engine.Group) [][]int {
	grouped := make([]bool, n)
	units := make([][]int, 0, n)
	for _, g := range groups {
		units = append(units, g.Indices)
		for _, i := range g.Indices {
			grouped[i] = true
		}
	}
	for i := range grouped {
		if !grouped[i] {
			units = append(units, []int{i})
		}
	}
	return units
}

// sweepRep is one timed repetition of a sweep job.
// It keeps only summaries, so what the run retains does not grow with
// the number of repetitions.
type sweepRep struct {
	rate     float64 // simulated cell references per second of wall
	alloc    uint64  // bytes allocated
	attempts int     // engine attempts over all cells
	col      *unitCollector
	engWall  time.Duration
	csvMS    float64
	appends  int
	appendNS time.Duration
}

// run simulates the whole plan through engine.RunGrouped, journals every
// result on cells, renders the CSV, and checks every output: each
// cell's hits + misses = accesses = its stream length, and the CSV's
// SHA-256 equals want. Each scheduling unit (a column unit or a single
// cell) is one op in ops, timed by its engine wall: the members of a
// column share one timing, so they make one sample.
func (j *sweepJob) run(ctx context.Context, workload string, rec *recorder, want string, ops *opLog) (*sweepRep, []engine.Result, error) {
	r := &sweepRep{}
	var (
		results []engine.Result
		csv     bytes.Buffer
		runErr  error
		appErr  error
	)
	before := totalAlloc()
	start := time.Now()
	err := rec.span(0, "job", workload+" run", func(root uint64) error {
		opts := engine.Options{}
		engID := rec.id()
		if rec != nil {
			r.col = newUnitCollector(rec, engID, len(j.plan.Cells), j.groups, j.family)
			opts.Collector = r.col
		}
		if j.journal != nil {
			opts.OnResult = func(i int, res engine.Result) {
				if res.Err != nil {
					return
				}
				t := time.Now()
				id := rec.id()
				err := j.journal.Append(checkpoint.Record{Fingerprint: j.plan.FPs[i], Label: res.Label,
					Stats: res.Stats, Attempts: res.Attempts, WallNS: int64(res.Wall)})
				end := time.Now()
				rec.add(id, engID, "checkpoint.append", res.Label, t, end)
				r.appends++
				r.appendNS += end.Sub(t)
				if err != nil && appErr == nil {
					appErr = err
				}
			}
		}
		engStart := time.Now()
		results, runErr = engine.RunGrouped(ctx, j.plan.Cells, j.groups, opts)
		r.engWall = time.Since(engStart)
		rec.add(engID, root, "engine.run", workload, engStart, engStart.Add(r.engWall))
		if runErr != nil {
			return runErr
		}
		csvStart := time.Now()
		err := rec.span(root, "csv.write", workload, func(uint64) error {
			_, err := j.plan.WriteCSV(&csv, results)
			return err
		})
		r.csvMS = ms(time.Since(csvStart))
		return err
	})
	wall := time.Since(start)
	r.alloc = totalAlloc() - before
	if err != nil {
		return nil, nil, err
	}
	csvOK := sha(csv.Bytes()) == want
	if !csvOK {
		fmt.Fprintf(os.Stderr, "perfbench: %s CSV digest %s, want %s\n", workload, sha(csv.Bytes()), want)
	}
	if appErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s journal append: %v\n", workload, appErr)
	}
	var refs uint64
	for _, res := range results {
		refs += res.Stats.Accesses
		r.attempts += res.Attempts
	}
	perSource := len(j.plan.Cells) / len(j.lens)
	for _, u := range j.units {
		ok := csvOK && appErr == nil
		for _, i := range u {
			ok = ok && cellOK(results[i], j.lens[i/perSource])
		}
		if ok {
			ops.ok(ms(results[u[0]].Wall))
		} else {
			ops.fail()
		}
	}
	r.rate = float64(refs) / wall.Seconds()
	return r, results, nil
}

// cellOK checks one result's accounting: hits + misses = accesses =
// stream length.
func cellOK(r engine.Result, streamLen int) bool {
	s := r.Stats
	return r.Err == nil && s.Hits+s.Misses == s.Accesses && s.Accesses == uint64(streamLen)
}

// verifyJournal checks that the journal holds one record per cell with
// the stats of the last run; it returns the number of bad cells.
func (j *sweepJob) verifyJournal(results []engine.Result) int {
	if j.journal == nil {
		return 0
	}
	bad := 0
	for i, res := range results {
		rec, ok := j.journal.Lookup(j.plan.FPs[i])
		if !ok || rec.Stats != res.Stats {
			bad++
		}
	}
	if j.journal.Len() != len(results) {
		bad++
	}
	return bad
}

// runSweep runs a sweep workload (columns or cells): repeated set-ups,
// then repetitions of the whole job until the measuring time is up. In
// the traced mode repetitions alternate between untraced and traced, so
// the tracing overhead is measured on the same job.
func runSweep(ctx context.Context, cfg config, workload string) (*report, error) {
	rep := newReport(workload)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		job        *sweepJob
		setupS     []float64
		setupAlloc []float64
	)
	defer func() {
		if job != nil {
			job.close()
		}
	}()
	for i := 0; i < cfg.scale.setupReps; i++ {
		if job != nil {
			job.close()
		}
		runtime.GC()
		before := totalAlloc()
		start := time.Now()
		j, err := setupSweep(cfg, workload, i, rec)
		setupS = append(setupS, time.Since(start).Seconds())
		setupAlloc = append(setupAlloc, float64(totalAlloc()-before))
		job = j
		if err != nil {
			return nil, err
		}
	}
	want, recorded, err := cfg.digests.expect(ctx, sweepKey(workload, job.plan.Spec.Refs, cfg.seed), func() (grid.Spec, error) {
		return job.plan.Spec, nil
	})
	if err != nil {
		return nil, err
	}
	rep.note("expected CSV digest %s (%s)", want[:16], digestOrigin(recorded))

	var (
		plain, traced []*sweepRep
		last          []engine.Result
	)
	timedStart := time.Now()
	for k := 0; ; k++ {
		useTrace := cfg.trace && k%2 == 1
		// Untraced ops are pooled across repetitions for the latency
		// percentiles; traced ones only count as attempted or failed.
		var r *recorder
		log := &rep.ops
		if useTrace {
			r, log = rec, &opLog{}
		}
		sr, results, err := job.run(ctx, workload, r, want, log)
		if err != nil {
			return nil, err
		}
		last = results
		if useTrace {
			traced = append(traced, sr)
			rep.ops.attempted += log.attempted
			rep.ops.failed += log.failed
		} else {
			plain = append(plain, sr)
		}
		// The untraced mode needs enough pooled samples for a p90.
		enough := len(plain) > 0 && (!cfg.trace || len(traced) > 0) &&
			(cfg.trace || len(rep.ops.latMS) >= minTailSamples)
		if enough && time.Since(timedStart) >= cfg.seconds {
			break
		}
	}
	rep.ops.failed += job.verifyJournal(last)
	v := rep.values
	if !cfg.trace {
		if err := rep.ops.latency(v); err != nil {
			return nil, err
		}
		rep.note("op_p50_ms and op_p90_ms are over %d unit samples pooled from the untraced repetitions", len(rep.ops.latMS))
	}
	rep.ops.latMS = nil // what the run retains must not grow with its length
	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	runtime.KeepAlive(job)
	runtime.KeepAlive(last)

	v["setup_s"] = median(setupS)
	v["cell_refs_per_s"] = median(mapf(plain, func(r *sweepRep) float64 { return r.rate }))
	v["alloc_mb"] = (median(setupAlloc) + median(mapf(plain, func(r *sweepRep) float64 { return float64(r.alloc) }))) / mib
	v["retained_mb"] = float64(msAfter.HeapAlloc) / mib
	rep.note("%d timed repetitions (%d untraced) of %d cells in %d units (%d column units)",
		len(plain)+len(traced), len(plain), len(job.plan.Cells), len(job.units), len(job.groups))
	if cfg.trace {
		sweepLayers(v, job, plain, traced)
		rep.spans = rec.snapshot()
	}
	return rep, nil
}

// sweepLayers fills the per-layer metrics of a traced sweep run.
func sweepLayers(v map[string]float64, job *sweepJob, plain, traced []*sweepRep) {
	zeroLayers(v)
	v["synth.refs"] = float64(job.synth.refs)
	v["synth.ns_per_ref"] = float64(job.synth.wall.Nanoseconds()) / float64(job.synth.refs)
	v["synth.alloc_b_per_ref"] = float64(job.synth.allocB) / float64(job.synth.refs)
	v["plan.build_ms"] = job.buildMS
	v["plan.partition_ms"] = job.partMS
	v["plan.column_share"] = float64(groupedCells(job.groups)) / float64(len(job.plan.Cells))
	v["column.units"] = float64(len(job.groups))
	v["csv.write_ms"] = median(mapf(traced, func(r *sweepRep) float64 { return r.csvMS }))

	fams := map[string]*famCost{}
	var busy, idle, attempts, cells, appends, appendNS float64
	workers := float64(min(runtime.GOMAXPROCS(0), len(job.units)))
	for _, r := range traced {
		for k, fc := range r.col.perFam {
			acc := fams[k]
			if acc == nil {
				acc = &famCost{}
				fams[k] = acc
			}
			acc.wall += fc.wall
			acc.memberRefs += fc.memberRefs
		}
		busy += r.col.busy.Seconds()
		idle += workers*r.engWall.Seconds() - r.col.busy.Seconds()
		attempts += float64(r.attempts)
		cells += float64(len(job.plan.Cells))
		appends += float64(r.appends)
		appendNS += float64(r.appendNS.Nanoseconds())
	}
	n := float64(len(traced))
	v["engine.busy_s"] = busy / n
	v["engine.idle_s"] = idle / n
	v["engine.attempts_per_cell"] = attempts / cells
	v["checkpoint.appends"] = appends / n
	if appends > 0 {
		v["checkpoint.append_us"] = appendNS / appends / 1e3
	}
	for k, fc := range fams {
		if fc.memberRefs == 0 {
			continue
		}
		name := "cell." + k[len("cell."):] + ".ns_per_ref"
		if len(k) > len("column.") && k[:len("column.")] == "column." {
			name = "column." + k[len("column."):] + ".ns_per_member_ref"
		}
		if _, ok := v[name]; ok {
			v[name] = float64(fc.wall.Nanoseconds()) / float64(fc.memberRefs)
		}
	}
	v["tracing.overhead_ratio"] = overhead(plain, traced)
}

func groupedCells(groups []engine.Group) int {
	n := 0
	for _, g := range groups {
		n += len(g.Indices)
	}
	return n
}

// overhead is the relative drop of traced against untraced throughput.
func overhead(plain, traced []*sweepRep) float64 {
	p := median(mapf(plain, func(r *sweepRep) float64 { return r.rate }))
	t := median(mapf(traced, func(r *sweepRep) float64 { return r.rate }))
	return 1 - t/p
}

func mapf[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func digestOrigin(recorded bool) string {
	if recorded {
		return "recorded"
	}
	return "not recorded for this seed and scale: checked against a per-cell run"
}
