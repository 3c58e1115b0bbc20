package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// smokeSeconds gives serve enough time for the 100 jobs its p90 needs.
var smokeSeconds = map[string]time.Duration{"columns": time.Second, "cells": time.Second, "serve": 4 * time.Second}

// runSmoke runs one workload at smoke scale, checked against book, and
// returns its result line and the command's error.
func runSmoke(t *testing.T, workload string, traced bool, book *digestBook) (Result, error) {
	t.Helper()
	cfg := config{workload: workload, seed: 5, seconds: smokeSeconds[workload], trace: traced,
		scale: smokeScale, out: t.TempDir(), digests: book}
	var out bytes.Buffer
	err := run(context.Background(), cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res Result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, jerr, out.String())
	}
	return res, err
}

func TestSmokeEveryWorkloadBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				book, err := parseDigests(recordedDigests)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runSmoke(t, w, traced, book)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v", res)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if traced {
					checkColumnShare(t, w, res.Metrics["plan.column_share"].Value)
				}
			})
		}
	}
}

func checkColumnShare(t *testing.T, workload string, got float64) {
	t.Helper()
	want := map[string]float64{"columns": 1, "cells": 0, "serve": 16.0 / 24}[workload]
	if got != want {
		t.Errorf("plan.column_share %v, want %v", got, want)
	}
}

func TestMalformedDigestsFail(t *testing.T) {
	for _, data := range []string{`{"columns/refs=4000/seed=5": "bad"}`, `not json`} {
		if _, err := parseDigests([]byte(data)); err == nil {
			t.Errorf("digest file %q must be refused", data)
		}
	}
}

func TestParseArgs(t *testing.T) {
	cfg, err := parseArgs([]string{"-workload", "cells", "-seed", "3", "-seconds", "2", "-trace", "1", "-out", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "cells" || cfg.seed != 3 || cfg.seconds != 2*time.Second || !cfg.trace ||
		cfg.scale != fullScale || cfg.out != "x" || len(cfg.digests.recorded) == 0 {
		t.Errorf("config %+v", cfg)
	}
	for _, args := range [][]string{{"-trace", "2"}, {"-seconds", "0"}, {"-smoke"}, {"-digests", "d.json"}} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("arguments %q must be refused", args)
		}
	}
	var out bytes.Buffer
	cfg.workload = "nope"
	if err := run(context.Background(), cfg, &out); err == nil || out.Len() != 0 {
		t.Errorf("an unknown workload must fail before any output: err %v, output %q", err, out.String())
	}
}

func TestCorruptDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	bad := strings.Repeat("0", 64)
	book := &digestBook{recorded: map[string]string{
		sweepKey("columns", smokeScale.colRefs, 5): bad,
		replayKey(smokeScale.serveRefs, 5):         bad,
	}}
	for _, w := range []string{"columns", "serve"} {
		res, err := runSmoke(t, w, false, book)
		if err == nil || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted digest: correct %v, %d of %d failed, err %v; want a failed command",
				w, res.Correct, res.Failed, res.Attempted, err)
		}
	}
}
