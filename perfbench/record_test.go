package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/serve"
	"repro/internal/spec"
)

// recordSeeds re-records digests.json in this directory (go test runs in
// the package directory):
//
//	cd perfbench && go test -run TestRecordDigests -timeout 60m -record 100
//
// Rerun it whenever a workload's inputs or grid change; it takes several
// minutes.
var recordSeeds = flag.Int64("record", 0, "record the per-cell reference digests of seeds [0, N) into digests.json")

// TestRecordDigests computes the per-cell reference digest of every CSV
// the full-scale benchmark checks for seeds [0, -record) and writes them
// to digests.json, sorted by key.
func TestRecordDigests(t *testing.T) {
	if *recordSeeds <= 0 {
		t.Skip("pass -record N to re-record digests.json")
	}
	ctx := context.Background()
	sc := fullScale
	out := map[string]string{}
	for _, p := range spec.SuiteParams() {
		for _, k := range serveKinds {
			js := serveJob(serve.JobSpec{Benches: []string{p.Name}, Kind: k}, sc.serveRefs)
			gs, err := benchJobGrid(js)
			if err != nil {
				t.Fatal(err)
			}
			if out[benchJobKey(js)], _, err = perCellRun(ctx, gs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for seed := int64(0); seed < *recordSeeds; seed++ {
		for _, w := range []string{"columns", "cells"} {
			gs, _, err := sweepGrid(w, seed, sc, nil, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out[sweepKey(w, gs.Refs, seed)], _, err = perCellRun(ctx, gs); err != nil {
				t.Fatal(err)
			}
		}
		data, err := replayTrace(seed, sc.serveRefs, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		js := serveJob(serve.JobSpec{Trace: traceHandle(data)}, sc.serveRefs)
		if out[replayKey(sc.serveRefs, seed)], _, err = perCellRun(ctx, replayJobGrid(data, js)); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded seed %d", seed)
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "  %q: %q%s\n", k, out[k], sep)
	}
	buf.WriteString("}\n")
	if err := os.WriteFile("digests.json", buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecordedDigestsParse keeps the embedded digest file well formed.
func TestRecordedDigestsParse(t *testing.T) {
	b, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.recorded) == 0 {
		t.Error("digests.json records no digest")
	}
}
