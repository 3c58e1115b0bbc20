package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/trace"
)

// scale sizes every workload. full is what BENCHMARK.json runs; smoke
// is the tiny configuration the benchmark's own tests use.
type scale struct {
	name      string
	colRefs   int // references per instruction stream of columns
	cellRefs  int // references per mixed stream of cells
	serveRefs int // references per source of a serve job
	setupReps int // sweep set-ups per run; setup_s is their median
	// serveSetups is the serve workload's set-up count: a server start
	// takes milliseconds, so more of them steady the median.
	serveSetups int
	// warmJobs is how many untimed jobs each serve tenant runs before
	// the measuring phase; windows is how many alternating untraced and
	// traced windows the traced mode cuts the measuring time into.
	warmJobs, windows int
}

var (
	fullScale = scale{name: "full", colRefs: 1_000_000, cellRefs: 500_000, serveRefs: 500_000,
		setupReps: 11, serveSetups: 15, warmJobs: 10, windows: 6}
	smokeScale = scale{name: "smoke", colRefs: 4_000, cellRefs: 2_000, serveRefs: 2_000,
		setupReps: 2, serveSetups: 2, warmJobs: 5, windows: 4}
)

// The three grids. columns is 2 streams × 10 sizes × 5 lines × 4
// policies = 400 cells in 40 size columns; cells is 10 streams × 1 size
// × 2 lines × 12 policies = 240 single cells; a serve job is 1 source ×
// 4 sizes × 2 lines × 3 policies = 24 cells, 16 of them in columns.
var (
	columnBenches  = []string{"gcc", "matrix300"}
	columnSizes    = pow2Sizes(1<<10, 512<<10)
	columnLines    = []uint64{4, 8, 16, 32, 64}
	columnPolicies = []string{"dm", "de", "lru2", "fifo2"}

	cellSizes = []uint64{32 << 10}
	cellLines = []uint64{4, 16}

	serveSizes    = []uint64{4096, 8192, 16384, 32768}
	serveLines    = []uint64{4, 16}
	servePolicies = []string{"dm", "de", "opt"}
	serveKinds    = []string{"instr", "data", "mixed"}
)

func pow2Sizes(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// seededParams returns the suite's program parameters with every
// generator seed shifted by seed, the way experiments.NewWorkloads
// shifts them; seed 0 is the canonical suite.
func seededParams(seed int64) []spec.Params {
	params := spec.SuiteParams()
	for i := range params {
		params[i].Seed += seed
	}
	return params
}

// seededBench builds one seed-shifted suite program.
func seededBench(name string, seed int64) (spec.Benchmark, error) {
	for _, p := range seededParams(seed) {
		if p.Name == name {
			return spec.Build(p)
		}
	}
	return spec.Benchmark{}, fmt.Errorf("perfbench: unknown benchmark %q", name)
}

// synthStats is what the traced run books per synthesized stream.
type synthStats struct {
	refs   int
	wall   time.Duration
	allocB uint64
}

// synthesize builds the named seed-shifted program and collects n
// references of the given kind, recording a synth span under parent.
func synthesize(rec *recorder, parent uint64, name, kind string, n int, seed int64, st *synthStats) ([]trace.Ref, error) {
	var refs []trace.Ref
	err := rec.span(parent, "synth", name+"/"+kind, func(uint64) error {
		before := totalAlloc()
		start := time.Now()
		b, err := seededBench(name, seed)
		if err != nil {
			return err
		}
		switch kind {
		case "instr":
			refs = b.Instr(n)
		case "data":
			refs = b.Data(n)
		default:
			refs = b.Mixed(n)
		}
		if st != nil {
			st.refs += len(refs)
			st.wall += time.Since(start)
			st.allocB += totalAlloc() - before
		}
		return nil
	})
	return refs, err
}

// sweepGrid builds a sweep workload's grid over already-synthesized,
// seed-shifted streams: the engine only ever sees generated inputs.
func sweepGrid(workload string, seed int64, sc scale, rec *recorder, parent uint64, st *synthStats) (grid.Spec, map[string]int, error) {
	var (
		names []string
		kind  string
		refs  int
		gs    grid.Spec
	)
	switch workload {
	case "columns":
		names, kind, refs = columnBenches, "instr", sc.colRefs
		gs = grid.Spec{Sizes: columnSizes, Lines: columnLines, Policies: columnPolicies}
	case "cells":
		for _, p := range spec.SuiteParams() {
			names = append(names, p.Name)
		}
		kind, refs = "mixed", sc.cellRefs
		gs = grid.Spec{Sizes: cellSizes, Lines: cellLines, Policies: cellPolicies()}
	default:
		return grid.Spec{}, nil, fmt.Errorf("perfbench: %q is not a sweep workload", workload)
	}
	gs.Kind, gs.Refs = kind, refs
	lens := make(map[string]int, len(names))
	for _, name := range names {
		stream, err := synthesize(rec, parent, name, kind, refs, seed, st)
		if err != nil {
			return grid.Spec{}, nil, err
		}
		lens[name] = len(stream)
		gs.Sources = append(gs.Sources, grid.NewSource(name, func() ([]trace.Ref, error) { return stream, nil }))
	}
	return gs, lens, nil
}

// benchJobs is the bench tenant's job sequence: every (suite benchmark,
// stream kind) pair once per cycle, in an order the seed shuffles anew
// each cycle, so any stretch of the sequence costs about the same.
func benchJobs(seed int64, refs int) func() serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	var pairs []serve.JobSpec
	for _, p := range spec.SuiteParams() {
		for _, k := range serveKinds {
			pairs = append(pairs, serve.JobSpec{Benches: []string{p.Name}, Kind: k})
		}
	}
	next := len(pairs)
	return func() serve.JobSpec {
		if next == len(pairs) {
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			next = 0
		}
		next++
		return serveJob(pairs[next-1], refs)
	}
}

// replayJobs is the replay tenant's job sequence: every job replays the
// uploaded trace.
func replayJobs(handle string, refs int) func() serve.JobSpec {
	return func() serve.JobSpec { return serveJob(serve.JobSpec{Trace: handle}, refs) }
}

// serveJob fills in the grid every serve job runs: the sweep CLI's
// default sizes and policies at lines 4 and 16 B.
func serveJob(js serve.JobSpec, refs int) serve.JobSpec {
	js.Refs = refs
	js.Sizes = serveSizes
	js.Lines = serveLines
	js.Policies = servePolicies
	return js
}

// replayProgram is the suite program the replay trace is drawn from;
// the seed shifts its generator, so every seed replays a different
// stream of the same structure.
const replayProgram = "gcc"

// replayTrace generates the replay tenant's trace from the seed: a
// mixed stream of the seed-shifted replay program, encoded in the dynex
// trace format the server decodes.
func replayTrace(seed int64, refs int, rec *recorder, parent uint64, st *synthStats) ([]byte, error) {
	stream, err := synthesize(rec, parent, replayProgram, "mixed", refs, seed, st)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, r := range stream {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeTrace decodes trace bytes the way the server decodes an upload.
func decodeTrace(data []byte, max int) ([]trace.Ref, error) {
	fr, err := trace.NewFileReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return trace.Collect(fr, max)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
