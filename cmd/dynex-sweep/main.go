// Command dynex-sweep runs a parameter sweep — cache sizes × line sizes ×
// policies over a chosen workload — and prints the miss rates as CSV for
// downstream plotting.
//
// The full grid is scheduled on the internal/engine worker pool, so every
// (benchmark × size × line × policy) cell runs concurrently across all
// cores while the CSV comes out in deterministic grid order — byte-
// identical to a serial run. Interrupt (Ctrl-C) cancels the sweep.
//
// The sweep is resilient: a failing cell (panic, I/O error, timeout) is
// reported on stderr and withheld from the CSV while the rest of the grid
// completes; the exit status is non-zero if any cell failed. -retries
// re-runs transiently failing cells with backoff, -cell-timeout bounds
// each cell, -max-failures aborts a sweep that is clearly doomed, and
// -checkpoint journals finished cells so an interrupted sweep resumes
// without re-simulating them — the resumed CSV is byte-identical to an
// uninterrupted run's.
//
// Geometry-heavy sweeps ride the single-pass fast path: every
// power-of-two size column sharing one (benchmark, line, policy) triple
// is simulated by a single internal/multisim column kernel in one pass
// over the stream, while ineligible cells run cell by cell on their
// batch kernels (DESIGN.md §15). The CSV and the checkpoint journal
// records are byte-identical to a cell-by-cell run of the same grid.
//
// The sweep is instrumented (DESIGN.md §8): -report writes a machine-
// readable RunReport (throughput, percentile cell latencies, retry/panic/
// timeout counts, checkpoint savings), -trace-events logs structured
// JSONL run events replayable with -trace-summary, -progress shows rate
// and ETA, and -debug-addr serves Prometheus metrics and pprof
// profiles for watching a long sweep mid-flight. Telemetry
// never touches stdout: the CSV is byte-identical with and without it.
//
// Examples:
//
//	dynex-sweep -bench gcc -sizes 4096,8192,16384 -lines 4,16 -policies dm,de,opt
//	dynex-sweep -suite -kind data -sizes 8192 -policies dm,de > data.csv
//	dynex-sweep -suite -workers 4 -progress -checkpoint sweep.jsonl -retries 2
//	dynex-sweep -suite -report run.json -trace-events run.trace -debug-addr :6060
//	dynex-sweep -trace-summary run.trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := sweep(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dynex-sweep:", err)
		os.Exit(1)
	}
}

// sweep is the whole command behind a testable seam: flags in args,
// CSV to stdout, diagnostics to stderr, non-nil error for a non-zero exit.
func sweep(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dynex-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName   = fs.String("bench", "gcc", "benchmark to sweep")
		suite       = fs.Bool("suite", false, "sweep every benchmark in the suite")
		kind        = fs.String("kind", "instr", "instr, data, or mixed")
		refs        = fs.Int("refs", 500_000, "references per benchmark")
		sizes       = fs.String("sizes", "4096,8192,16384,32768", "comma-separated cache sizes in bytes")
		lines       = fs.String("lines", "4", "comma-separated line sizes in bytes")
		policies    = fs.String("policies", "dm,de,opt", "comma-separated policy specs ("+strings.Join(policy.Names(), ", ")+"; options like de:sticky=2,store=hashed*4)")
		listPols    = fs.Bool("list-policies", false, "print every registered policy name, one per line, and exit")
		workers     = fs.Int("workers", 0, "simulation workers (0 = all cores)")
		progress    = fs.Bool("progress", false, "report cell progress on stderr")
		ckptPath    = fs.String("checkpoint", "", "journal finished cells to this file and resume from it")
		maxFailures = fs.Int("max-failures", 0, "abort the sweep after this many cell failures (0 = finish regardless)")
		retries     = fs.Int("retries", 0, "re-run transiently failing cells up to this many extra times")
		cellTimeout = fs.Duration("cell-timeout", 0, "wall-clock budget per cell attempt (0 = none)")
		inject      = fs.String("inject", "", "fault injection for testing: stream-fail=N or panic=SUBSTR")
		reportPath  = fs.String("report", "", "write a machine-readable RunReport JSON to this file")
		traceFile   = fs.String("trace-events", "", "write a structured JSONL event log of the run to this file")
		traceSum    = fs.String("trace-summary", "", "summarize an event log written by -trace-events and exit")
		debugAddr   = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060) during the sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// -list-policies is the registry inventory, machine-readable so CI can
	// iterate every registered policy.
	if *listPols {
		for _, name := range policy.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	// -trace-summary is a replay mode: no simulation, just the timeline.
	if *traceSum != "" {
		f, err := os.Open(*traceSum)
		if err != nil {
			return err
		}
		defer f.Close()
		events, err := telemetry.ReadEvents(f)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, telemetry.SummarizeTrace(events, 10))
		return nil
	}

	sizeList, err := parseUints(*sizes)
	if err != nil {
		return fmt.Errorf("bad -sizes: %w", err)
	}
	lineList, err := parseUints(*lines)
	if err != nil {
		return fmt.Errorf("bad -lines: %w", err)
	}
	// Fail fast: validate the entire -policies list before any stream is
	// synthesized or any cell scheduled, so a typo in the last policy
	// cannot waste a long sweep. The raw strings stay as the CSV policy
	// labels and checkpoint fingerprints; the parsed specs build the cells.
	polList, err := policy.SplitList(*policies)
	if err != nil {
		return fmt.Errorf("bad -policies: %w", err)
	}
	for _, pol := range polList {
		if _, err := policy.Parse(pol); err != nil {
			return fmt.Errorf("bad -policies: %w", err)
		}
	}
	inj, err := faultinject.ParseDirective(*inject)
	if err != nil {
		return fmt.Errorf("bad -inject: %w", err)
	}

	var benchNames []string
	if *suite {
		for _, b := range spec.Suite() {
			benchNames = append(benchNames, b.Name)
		}
	} else {
		if _, ok := spec.ByName(*benchName); !ok {
			return fmt.Errorf("unknown benchmark %q", *benchName)
		}
		benchNames = []string{*benchName}
	}

	// The whole cell grid — benchmark-major, then size, line, policy,
	// fingerprints and CSV layout included — comes from internal/grid,
	// the layout shared with the dynex-serve job runner, so a sweep
	// checkpoint and a serve job journal are interchangeable and their
	// CSVs byte-identical. Every cell is validated before any simulation
	// starts; each benchmark's stream materializes lazily, once, on
	// whichever worker reaches it first.
	sources, err := grid.BenchSources(benchNames, *kind, *refs)
	if err != nil {
		return err
	}
	plan, err := grid.Spec{
		Sources: sources, Kind: *kind, Refs: *refs,
		Sizes: sizeList, Lines: lineList, Policies: polList,
	}.Build()
	if err != nil {
		return err
	}
	skip := inj.Apply(&plan)
	nCells := len(plan.Cells)

	// Telemetry: one collector feeds the progress meter, the -report
	// aggregation, the -trace-events log, and the -debug-addr /metrics
	// series. All of it is observational — stdout CSV is identical with
	// and without these flags.
	var col *telemetry.Collector
	if *progress || *reportPath != "" || *traceFile != "" || *debugAddr != "" {
		col = telemetry.NewCollector(nCells)
		if *traceFile != "" {
			tw, err := telemetry.OpenTrace(*traceFile)
			if err != nil {
				return err
			}
			defer func() {
				if err := tw.Close(); err != nil {
					fmt.Fprintf(stderr, "dynex-sweep: trace-events: %v\n", err)
				}
			}()
			col.SetTrace(tw)
		}
		col.Start("dynex-sweep " + strings.Join(args, " "))
		defer func() {
			col.Finish()
			if *reportPath != "" {
				if err := col.WriteReport(*reportPath, "dynex-sweep "+strings.Join(args, " ")); err != nil {
					fmt.Fprintf(stderr, "dynex-sweep: report: %v\n", err)
				}
			}
		}()
		if *debugAddr != "" {
			col.SetInstruments(telemetry.DefaultInstruments(policy.Names()))
			addr, err := obs.ServeDebug(*debugAddr, obs.Default)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "dynex-sweep: debug server on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", addr)
		}
	}

	// A typed-nil *Collector must not become a non-nil interface.
	var engCol engine.Collector
	var book grid.Book
	if col != nil {
		engCol, book = col, col
	}
	// Resume: cells already in the journal are restored; only the
	// remainder is scheduled.
	var journal *checkpoint.Journal
	if *ckptPath != "" {
		journal, err = checkpoint.Open(*ckptPath)
		if err != nil {
			return err
		}
		defer journal.Close()
	}
	merged, pending := plan.Restore(journal, book)
	if col != nil {
		col.SetTotal(len(pending))
	}
	if journal != nil && len(pending) < nCells {
		fmt.Fprintf(stderr, "dynex-sweep: resuming: %d of %d cells journaled, %d to run\n",
			nCells-len(pending), nCells, len(pending))
	}

	var report func(done, total int)
	if *progress {
		report = func(done, total int) {
			if eta := col.ETA(done, total); eta > 0 {
				rate := col.Snapshot().CellsPerSec
				fmt.Fprintf(stderr, "\r%d/%d cells (%.1f cells/s, ETA %s)", done, total, rate, eta.Round(time.Second))
				return
			}
			fmt.Fprintf(stderr, "\r%d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	// The sweep context is cancelled early when -max-failures is hit.
	sweepCtx, bail := context.WithCancel(ctx)
	defer bail()
	failures, bailed := 0, false

	// Size columns (DESIGN.md §15) change scheduling only: results,
	// journal records, and CSV bytes are pinned to the per-cell path.
	runErr := plan.Run(sweepCtx, merged, pending, grid.RunOptions{
		Engine: engine.Options{
			Workers:     *workers,
			Progress:    report,
			Retry:       engine.Retry{Attempts: *retries + 1},
			CellTimeout: *cellTimeout,
			Collector:   engCol,
		},
		Journal: journal,
		Book:    book,
		Skip:    skip,
		OnCell: func(_ int, r engine.Result, appendErr error) {
			// Serialized by the engine: no locking needed here.
			if appendErr != nil {
				fmt.Fprintf(stderr, "dynex-sweep: checkpoint: %v\n", appendErr)
			}
			if r.Err == nil || errors.Is(r.Err, context.Canceled) {
				return // a cancellation casualty is not a failure of its own
			}
			failures++
			if *maxFailures > 0 && failures >= *maxFailures && !bailed {
				bailed = true
				bail()
			}
		},
	})
	if runErr != nil && !bailed {
		return runErr // the user's interrupt, not a cell failure
	}

	// Emit in cell order: the engine guarantees results[i] describes
	// cells[i] regardless of completion order, so the CSV is identical to
	// the serial version's; rows for failed cells are withheld and
	// reported on stderr instead.
	failed, err := plan.WriteCSV(stdout, merged)
	if err != nil {
		return err
	}
	if len(failed) == 0 {
		return nil
	}
	fmt.Fprintf(stderr, "dynex-sweep: %d of %d cells failed (rows withheld from CSV):\n", len(failed), nCells)
	for _, f := range failed {
		if f.Attempts > 1 {
			fmt.Fprintf(stderr, "  %s: %v (after %d attempts)\n", f.Label, f.Err, f.Attempts)
		} else {
			fmt.Fprintf(stderr, "  %s: %v\n", f.Label, f.Err)
		}
	}
	if bailed {
		return fmt.Errorf("aborted after %d cell failures (-max-failures=%d)", failures, *maxFailures)
	}
	return fmt.Errorf("%d of %d cells failed", len(failed), nCells)
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
