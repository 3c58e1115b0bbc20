// Command dynex-experiments regenerates the paper's evaluation: every
// figure's table (and ASCII chart) is printed to stdout.
//
// Usage:
//
//	dynex-experiments                  # run everything at 1M refs/benchmark
//	dynex-experiments -refs 2000000    # longer traces (paper used 10M)
//	dynex-experiments -run fig03,fig05 # a subset
//	dynex-experiments -list            # list experiment ids
//
// With -checkpoint FILE, each finished experiment's rendered output is
// journaled; an interrupted regeneration resumes without re-running the
// experiments already in the journal, printing their journaled output
// verbatim (headers say "checkpointed" instead of an elapsed time).
//
// The run is instrumented (DESIGN.md §8): -report writes a RunReport
// JSON covering every simulation cell the experiments scheduled,
// -trace-events logs structured JSONL run events (one annotation per
// experiment plus the engine's cell events; summarize with
// `dynex-sweep -trace-summary`), and -debug-addr serves Prometheus
// metrics and pprof profiles so a multi-hour regeneration can be
// profiled mid-flight. Telemetry never changes stdout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

func main() {
	// The same graceful-cancel path as cmd/dynex-sweep: interrupt or
	// SIGTERM cancels the engine mid-experiment, the checkpoint journal
	// is synced and closed by the deferred handlers, and the process
	// exits with a clean "interrupted" error — a resumed -checkpoint run
	// picks up from the journaled experiments.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dynex-experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) (err error) {
	// Experiment bodies panic on cell failures; with a real context those
	// panics can now carry the user's cancellation. Recover exactly that
	// case into a clean error (running the deferred journal/telemetry
	// shutdown on the way out); any other panic is a real bug and keeps
	// crashing loudly.
	defer func() {
		if v := recover(); v != nil {
			if pe, ok := v.(error); ok && errors.Is(pe, context.Canceled) {
				err = fmt.Errorf("interrupted: %w", pe)
				return
			}
			panic(v)
		}
	}()
	var (
		refs       = flag.Int("refs", 1_000_000, "references collected per benchmark and stream kind")
		runIDs     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		jsonMode   = flag.Bool("json", false, "emit one JSON object per experiment instead of tables")
		seed       = flag.Int64("seed", 0, "workload seed offset (sensitivity runs; 0 = the canonical suite)")
		workers    = flag.Int("workers", 0, "simulation workers per experiment (0 = all cores)")
		ckptPath   = flag.String("checkpoint", "", "journal finished experiments to this file and resume from it")
		reportPath = flag.String("report", "", "write a machine-readable RunReport JSON to this file")
		traceFile  = flag.String("trace-events", "", "write a structured JSONL event log of the run to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060) during the run")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", r.ID, r.Title)
		}
		return nil
	}

	var runners []experiments.Runner
	if *runIDs == "all" {
		runners = experiments.Registry()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			r, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "dynex-experiments: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	// Telemetry: the collector observes every simulation cell the
	// experiments schedule (threaded through experiments.Config) plus
	// per-experiment annotations and checkpoint activity.
	var col *telemetry.Collector
	var engCol engine.Collector
	if *reportPath != "" || *traceFile != "" || *debugAddr != "" {
		col = telemetry.NewCollector(0)
		engCol = col
		if *traceFile != "" {
			tw, err := telemetry.OpenTrace(*traceFile)
			if err != nil {
				return err
			}
			defer func() {
				if err := tw.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "dynex-experiments: trace-events:", err)
				}
			}()
			col.SetTrace(tw)
		}
		col.Start("dynex-experiments " + strings.Join(os.Args[1:], " "))
		defer func() {
			col.Finish()
			if *reportPath != "" {
				if err := col.WriteReport(*reportPath, "dynex-experiments "+strings.Join(os.Args[1:], " ")); err != nil {
					fmt.Fprintln(os.Stderr, "dynex-experiments: report:", err)
				}
			}
		}()
		if *debugAddr != "" {
			col.SetInstruments(telemetry.DefaultInstruments(policy.Names()))
			addr, err := obs.ServeDebug(*debugAddr, obs.Default)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "dynex-experiments: debug server on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", addr)
		}
	}

	var journal *checkpoint.Journal
	if *ckptPath != "" {
		var err error
		if journal, err = checkpoint.Open(*ckptPath); err != nil {
			return err
		}
		defer journal.Close()
	}
	// fp identifies one experiment's output: the renderer (mode), the
	// experiment, and the workload parameters that determine its numbers.
	mode := "text"
	if *jsonMode {
		mode = "json"
	}
	fp := func(id string) string {
		return checkpoint.Fingerprint("dynex-experiments/v1", mode, id,
			strconv.Itoa(*refs), strconv.FormatInt(*seed, 10))
	}

	w := experiments.NewWorkloads(experiments.Config{Refs: *refs, SeedOffset: *seed, Workers: *workers, Collector: engCol, Ctx: ctx})
	// runExperiment wraps one experiment with telemetry annotations.
	runExperiment := func(r experiments.Runner) fmt.Stringer {
		if col != nil {
			col.Annotate("experiment_start", r.ID)
			defer col.Annotate("experiment_finish", r.ID)
		}
		return r.Run(w)
	}
	if *jsonMode {
		for _, r := range runners {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted: %w", err)
			}
			if journal != nil {
				if rec, ok := journal.Lookup(fp(r.ID)); ok {
					fmt.Print(rec.Payload)
					if col != nil {
						col.CheckpointHit(r.ID, 0)
					}
					continue
				}
			}
			var line strings.Builder
			if err := json.NewEncoder(&line).Encode(map[string]any{
				"id":     r.ID,
				"title":  r.Title,
				"refs":   *refs,
				"result": runExperiment(r),
			}); err != nil {
				return err
			}
			// A cancellation mid-experiment can leave a partially computed
			// result (skipped benchmarks render as zeros): never print or
			// journal it.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted: %w", err)
			}
			fmt.Print(line.String())
			if journal != nil {
				saveStart := time.Now()
				if err := journal.Append(checkpoint.Record{Fingerprint: fp(r.ID), Label: r.ID, Payload: line.String()}); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
				if col != nil {
					col.CheckpointWrite(r.ID, time.Since(saveStart))
				}
			}
		}
		return nil
	}
	fmt.Printf("Cache Replacement with Dynamic Exclusion (McFarling, ISCA 1992) — reproduction\n")
	fmt.Printf("workload: synthetic SPEC89 suite, %d refs/benchmark/kind\n\n", *refs)
	for _, r := range runners {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		if journal != nil {
			if rec, ok := journal.Lookup(fp(r.ID)); ok {
				fmt.Printf("== %s: %s  (checkpointed)\n\n", r.ID, r.Title)
				fmt.Println(rec.Payload)
				if col != nil {
					col.CheckpointHit(r.ID, 0)
				}
				continue
			}
		}
		start := time.Now()
		res := fmt.Sprint(runExperiment(r))
		// Never print or journal a result the cancellation truncated.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		fmt.Printf("== %s: %s  (%.1fs)\n\n", r.ID, r.Title, time.Since(start).Seconds())
		fmt.Println(res)
		if journal != nil {
			saveStart := time.Now()
			if err := journal.Append(checkpoint.Record{Fingerprint: fp(r.ID), Label: r.ID, Payload: res}); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			if col != nil {
				col.CheckpointWrite(r.ID, time.Since(saveStart))
			}
		}
	}
	return nil
}
