// Command perfbench is the repository's benchmark: three seeded
// workloads that exercise the simulator end to end, each checked for
// correct output, with a separate traced mode for per-layer numbers.
// README.md in this directory documents the workloads and metrics;
// BENCHMARK.json at the repository root lists them for tooling.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload columns --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed check exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// workloads are the benchmark's workloads in the order -workload all
// runs them.
var workloads = []string{"columns", "cells", "serve"}

// config is one invocation's settings.
type config struct {
	workload string // columns, cells, serve, or all
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    scale
	out      string
	digests  *digestBook
}

// report is one workload run's measurements and notes.
type report struct {
	workload string
	values   map[string]float64
	ops      opLog
	notes    []string
	spans    []obs.Span
	fs       string // the serve data directory's filesystem
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, fs: "none"}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// zeroLayers sets every per-layer metric to 0, the reading of a layer
// the workload does not exercise; the workload then overwrites the ones
// it measures.
func zeroLayers(v map[string]float64) {
	for _, d := range perLayer {
		v[d.name] = 0
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg, err := parseArgs(os.Args[1:])
	if err == nil {
		err = run(ctx, cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// parseArgs turns the command line into a full-scale config checked
// against the recorded digests.
func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "columns, cells, serve, or all")
		seed     = fs.Int64("seed", 0, "input seed; 0 is the canonical suite")
		seconds  = fs.Int("seconds", 35, "measuring time per workload, in seconds")
		traced   = fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
		out      = fs.String("out", ".bench_build", "directory for spans, journals and the serve data directory")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return config{}, fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	book, err := parseDigests(recordedDigests)
	return config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traced == 1, scale: fullScale, out: *out, digests: book}, err
}

// run is the whole command behind a testable seam: it runs cfg's
// workloads and prints their reports and the result line to stdout.
func run(ctx context.Context, cfg config, stdout io.Writer) error {
	names := []string{cfg.workload}
	switch cfg.workload {
	case "all":
		names = workloads
	case "columns", "cells", "serve":
	default:
		return fmt.Errorf("unknown workload %q (columns, cells, serve, or all)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	total := Result{Correct: true, Metrics: map[string]Metric{}}
	spans := map[string][]obs.Span{}
	env := map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": cfg.seed, "scale": cfg.scale.name, "seconds": cfg.seconds.Seconds()}
	var last Result
	for _, w := range names {
		var (
			rep *report
			err error
		)
		if w == "serve" {
			rep, err = runServe(ctx, cfg, w)
		} else {
			rep, err = runSweep(ctx, cfg, w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		metrics, err := fill(defs, rep.values)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		last = Result{Correct: rep.ops.failed == 0, Attempted: rep.ops.attempted, Failed: rep.ops.failed, Metrics: metrics}
		env["datadir_fs_"+w] = rep.fs
		printReport(stdout, rep, cfg, last, defs)
		if cfg.trace {
			spans[w] = rep.spans
			if err := traceSummary(stdout, w, rep.spans); err != nil {
				return err
			}
		}
		total.Correct = total.Correct && last.Correct
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for name, m := range metrics {
			total.Metrics[w+"."+name] = m
		}
	}
	if cfg.trace {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, env, spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	if len(names) == 1 {
		total = last
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return fmt.Errorf("%d of %d operations failed their output checks", total.Failed, total.Attempted)
	}
	return nil
}

// printReport prints one workload's metrics by name and unit, its
// environment, and its notes, as comment lines ahead of the JSON line.
func printReport(w io.Writer, rep *report, cfg config, res Result, defs []metricDef) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s (%s) seed=%d gomaxprocs=%d go=%s datadir_fs=%s\n",
		rep.workload, mode, cfg.seed, runtime.GOMAXPROCS(0), runtime.Version(), rep.fs)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s: %s\n", rep.workload, n)
	}
	ratio := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "# %s: fail_ratio = %g (%d of %d ops failed)\n", rep.workload, ratio, res.Failed, res.Attempted)
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "# %s: %s = %.6g %s\n", rep.workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprint(w, b.String())
}
