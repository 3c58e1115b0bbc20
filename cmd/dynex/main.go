// Command dynex simulates a single cache configuration over a workload
// and prints the resulting statistics — the interactive counterpart of
// the batch experiment driver.
//
// Examples:
//
//	dynex -bench gcc -size 32768 -line 4 -policy de
//	dynex -bench li -kind data -policy victim -refs 2000000
//	dynex -pattern within-loop -policy dm
//	dynex -bench spice -policy de -l2 131072 -strategy assume-miss
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	// The same graceful-cancel path as cmd/dynex-sweep: interrupt or
	// SIGTERM cancels the context, the simulation stops at the next
	// chunk boundary, and the process exits with a clean error instead
	// of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dynex:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		benchName  = flag.String("bench", "gcc", "benchmark name from the suite (see -benches)")
		pattern    = flag.String("pattern", "", "run a §3 pattern instead of a benchmark: between-loops, loop-levels, within-loop, three-way")
		traceFile  = flag.String("trace", "", "replay a dynex trace file instead of a benchmark (see cmd/tracegen)")
		kind       = flag.String("kind", "instr", "reference stream: instr, data, or mixed")
		refs       = flag.Int("refs", 1_000_000, "number of references to simulate")
		warmup     = flag.Int("warmup", 0, "references excluded from the reported stats (single-level policies; must leave a nonempty window)")
		size       = flag.Uint64("size", 32<<10, "cache size in bytes")
		line       = flag.Uint64("line", 4, "line size in bytes")
		policyStr  = flag.String("policy", "de", "policy spec, e.g. de:sticky=2,store=hashed*4 ("+strings.Join(policy.Names(), ", ")+")")
		lastLine   = flag.Bool("lastline", false, "force the §6 last-line buffer on/off (default: auto — enabled when line > 4)")
		sticky     = flag.Int("sticky", 1, "sticky levels (1 = the paper's FSM)")
		l2         = flag.Uint64("l2", 0, "add a second level of this size (bytes); 0 = single level")
		strategy   = flag.String("strategy", "assume-hit", "hit-last storage with -l2: assume-hit, assume-miss, hashed")
		benches    = flag.Bool("benches", false, "list benchmarks and exit")
		reportPath = flag.String("report", "", "write a machine-readable RunReport JSON (simulation wall time, refs/sec) to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	if *benches {
		for _, p := range spec.SuiteParams() {
			fmt.Printf("%-10s %s (%dKB code, %dKB data)\n", p.Name, p.Description, p.CodeKB, p.DataKB)
		}
		return nil
	}

	pspec, err := policy.Parse(*policyStr)
	if err != nil {
		return err
	}
	// The legacy -lastline and -sticky flags act as spec overrides, but
	// only when given explicitly — a spec option ("de:nolastline") must
	// not be clobbered by a flag default.
	var flagErr error
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "lastline":
			pspec = pspec.WithLastLine(*lastLine)
		case "sticky":
			if *sticky < 1 || *sticky > 255 {
				flagErr = fmt.Errorf("-sticky %d out of [1,255]", *sticky)
				return
			}
			pspec = pspec.WithSticky(*sticky)
		}
	})
	if flagErr != nil {
		return flagErr
	}

	streamRefs, desc, err := loadRefs(*benchName, *pattern, *traceFile, *kind, *refs, *size)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	geom := cache.DM(*size, *line)
	fmt.Printf("workload: %s (%d refs)\ncache:    %s, policy %s\n\n", desc, len(streamRefs), geom, pspec)

	// -report: one telemetry cell covering the whole simulation, so the
	// single-run CLI shares the batch drivers' RunReport format.
	var col *telemetry.Collector
	if *reportPath != "" || *debugAddr != "" {
		col = telemetry.NewCollector(1)
	}
	if *debugAddr != "" {
		col.SetInstruments(telemetry.DefaultInstruments(policy.Names()))
		addr, err := obs.ServeDebug(*debugAddr, obs.Default)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dynex: debug server on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", addr)
	}
	simStart := time.Now()
	writeReport := func() error {
		if col == nil {
			return nil
		}
		col.RecordCell(desc+"/"+*policyStr, time.Since(simStart), uint64(len(streamRefs)), nil)
		if *reportPath == "" {
			return nil
		}
		return col.WriteReport(*reportPath, "dynex "+strings.Join(os.Args[1:], " "))
	}

	if *l2 != 0 {
		if *warmup != 0 {
			return fmt.Errorf("-warmup is not supported with -l2 (hierarchy counters cover the full stream)")
		}
		if err := runHierarchy(ctx, streamRefs, geom, *l2, *strategy, *lastLine, *sticky); err != nil {
			return err
		}
		return writeReport()
	}
	sim, err := pspec.Build(geom)
	if err != nil {
		return err
	}
	// policy.WindowCtx runs the warmup-snapshot dance for every policy,
	// including opt's whole-stream special case, and windows the
	// policy-specific counters alongside the headline stats; the context
	// makes ^C/SIGTERM stop the drive loop at the next chunk boundary.
	m, err := policy.WindowCtx(ctx, sim, streamRefs, *warmup)
	if err != nil {
		return err
	}
	if *warmup > 0 {
		fmt.Printf("(steady state after %d warmup refs)\n", *warmup)
	}
	fmt.Println(m.Stats)
	if len(m.Extras) > 0 {
		fmt.Println("counters:", formatCounters(m.Extras))
	}
	return writeReport()
}

// formatCounters renders windowed policy counters as "name=value ...".
func formatCounters(extras []cache.Counter) string {
	parts := make([]string, len(extras))
	for i, c := range extras {
		parts[i] = fmt.Sprintf("%s=%d", c.Name, c.Value)
	}
	return strings.Join(parts, " ")
}

// loadRefs builds the requested reference stream.
func loadRefs(benchName, pattern, traceFile, kind string, n int, cacheSize uint64) ([]trace.Ref, string, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		var reader trace.Reader
		fr, err := trace.NewFileReader(f)
		switch {
		case err == nil:
			reader = fr
		case err == trace.ErrBadMagic:
			// Not a dynex trace: try the Dinero text format.
			if _, err := f.Seek(0, 0); err != nil {
				return nil, "", err
			}
			reader = trace.NewDinReader(f)
		default:
			return nil, "", err
		}
		refs, err := trace.Collect(reader, n)
		if err != nil {
			return nil, "", err
		}
		return refs, "trace " + traceFile, nil
	}
	if pattern != "" {
		var s patterns.Spec
		switch pattern {
		case "between-loops":
			s = patterns.BetweenLoops(10, 10)
		case "loop-levels":
			s = patterns.LoopLevels(10, 10)
		case "within-loop":
			s = patterns.WithinLoop(10)
		case "three-way":
			s = patterns.ThreeWay(10)
		default:
			return nil, "", fmt.Errorf("unknown pattern %q", pattern)
		}
		return s.Refs(0, cacheSize), "pattern " + s.Name, nil
	}
	b, ok := spec.ByName(benchName)
	if !ok {
		return nil, "", fmt.Errorf("unknown benchmark %q (try -benches)", benchName)
	}
	switch kind {
	case "instr":
		return b.Instr(n), benchName + " instructions", nil
	case "data":
		return b.Data(n), benchName + " data", nil
	case "mixed":
		return b.Mixed(n), benchName + " mixed", nil
	default:
		return nil, "", fmt.Errorf("unknown kind %q", kind)
	}
}

// runHierarchy drives a two-level system, honoring cancellation between
// chunks of the drive loop.
func runHierarchy(ctx context.Context, refs []trace.Ref, l1 cache.Geometry, l2Size uint64, strategy string, lastLine bool, sticky int) error {
	var st hierarchy.Strategy
	switch strategy {
	case "assume-hit":
		st = hierarchy.AssumeHit
	case "assume-miss":
		st = hierarchy.AssumeMiss
	case "hashed":
		st = hierarchy.Hashed
	case "baseline":
		st = hierarchy.Baseline
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}
	sys, err := hierarchy.New(hierarchy.Config{
		L1:          l1,
		L2:          cache.DM(l2Size, l1.LineSize),
		Strategy:    st,
		UseLastLine: lastLine,
		StickyMax:   sticky,
	})
	if err != nil {
		return err
	}
	const chunk = 1 << 15
	for i, r := range refs {
		if i%chunk == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted: %w", err)
			}
		}
		sys.Access(r.Addr)
	}
	fmt.Printf("L1: %v\n", sys.L1Stats())
	fmt.Printf("L2: %v\n", sys.L2Stats())
	fmt.Printf("global L2 miss rate: %.4f%%\n", 100*sys.GlobalL2MissRate())
	return nil
}
