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
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
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
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "dynex-experiments:", err)
		os.Exit(1)
	}
}

// errUsage is a usage error already reported on stderr (a bad flag or
// an unknown -run id): main exits with status 2, as the flag package
// does.
var errUsage = errors.New("usage error")

// run is the whole command behind a testable seam: flags in args,
// tables or JSON lines to stdout, diagnostics to stderr, non-nil error
// for a non-zero exit.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
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
	fs := flag.NewFlagSet("dynex-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		refs       = fs.Int("refs", 1_000_000, "references collected per benchmark and stream kind")
		runIDs     = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		jsonMode   = fs.Bool("json", false, "emit one JSON object per experiment instead of tables")
		seed       = fs.Int64("seed", 0, "workload seed offset (sensitivity runs; 0 = the canonical suite)")
		workers    = fs.Int("workers", 0, "simulation workers per experiment (0 = all cores)")
		ckptPath   = fs.String("checkpoint", "", "journal finished experiments to this file and resume from it")
		reportPath = fs.String("report", "", "write a machine-readable RunReport JSON to this file")
		traceFile  = fs.String("trace-events", "", "write a structured JSONL event log of the run to this file")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060) during the run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the usage is the output
		}
		return errUsage
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-10s %s\n", r.ID, r.Title)
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
				fmt.Fprintf(stderr, "dynex-experiments: unknown experiment %q (try -list)\n", id)
				return errUsage
			}
			runners = append(runners, r)
		}
	}

	// Telemetry: the collector observes every simulation cell the
	// experiments schedule (threaded through experiments.Config) plus
	// per-experiment annotations and checkpoint activity.
	col, finish, err := telemetry.Open("dynex-experiments "+strings.Join(args, " "), 0,
		telemetry.Sinks{Report: *reportPath, TraceEvents: *traceFile, DebugAddr: *debugAddr},
		policy.Names(), stderr)
	if err != nil {
		return err
	}
	defer finish()

	var journal *checkpoint.Journal
	if *ckptPath != "" {
		if journal, err = checkpoint.Open(*ckptPath); err != nil {
			return err
		}
		defer journal.Close()
	}
	// The output modes differ only in render, which turns a result into
	// its journal payload, and show, which prints a payload, fresh or
	// journaled: text mode prints a table under a header noting the
	// elapsed time or "checkpointed", JSON mode one line per experiment.
	mode := "text"
	render := func(_ experiments.Runner, res fmt.Stringer) (string, error) { return fmt.Sprint(res), nil }
	show := func(r experiments.Runner, payload, note string) {
		fmt.Fprintf(stdout, "== %s: %s  (%s)\n\n%s\n", r.ID, r.Title, note, payload)
	}
	if *jsonMode {
		mode = "json"
		render = func(r experiments.Runner, res fmt.Stringer) (string, error) {
			var line strings.Builder
			err := json.NewEncoder(&line).Encode(map[string]any{
				"id": r.ID, "title": r.Title, "refs": *refs, "result": res,
			})
			return line.String(), err
		}
		show = func(_ experiments.Runner, payload, _ string) { fmt.Fprint(stdout, payload) }
	} else {
		fmt.Fprintf(stdout, "Cache Replacement with Dynamic Exclusion (McFarling, ISCA 1992) — reproduction\n")
		fmt.Fprintf(stdout, "workload: synthetic SPEC89 suite, %d refs/benchmark/kind\n\n", *refs)
	}
	// fp identifies one experiment's output: the renderer (mode), the
	// experiment, and the workload parameters that determine its numbers.
	fp := func(id string) string {
		return checkpoint.Fingerprint("dynex-experiments/v1", mode, id,
			strconv.Itoa(*refs), strconv.FormatInt(*seed, 10))
	}

	w := experiments.NewWorkloads(experiments.Config{Refs: *refs, SeedOffset: *seed, Workers: *workers, Collector: col, Ctx: ctx})
	// runExperiment wraps one experiment with telemetry annotations.
	runExperiment := func(r experiments.Runner) fmt.Stringer {
		col.Annotate("experiment_start", r.ID)
		defer col.Annotate("experiment_finish", r.ID)
		return r.Run(w)
	}
	for _, r := range runners {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		if journal != nil {
			if rec, ok := journal.Lookup(fp(r.ID)); ok {
				show(r, rec.Payload, "checkpointed")
				col.CheckpointHit(r.ID, 0)
				continue
			}
		}
		start := time.Now()
		payload, err := render(r, runExperiment(r))
		if err != nil {
			return err
		}
		// A cancelled experiment panics instead of returning a partial
		// result; a cancellation that lands just after it finished still
		// stops the run before the output is printed or journaled.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		show(r, payload, fmt.Sprintf("%.1fs", time.Since(start).Seconds()))
		if journal != nil {
			saveStart := time.Now()
			if err := journal.Append(checkpoint.Record{Fingerprint: fp(r.ID), Label: r.ID, Payload: payload}); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			col.CheckpointWrite(r.ID, time.Since(saveStart))
		}
	}
	return nil
}
