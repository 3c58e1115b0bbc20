package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/trace"
)

// recordedDigests holds the SHA-256 of every CSV the benchmark checks,
// keyed as sweepKey, benchJobKey and replayKey make them. They were
// recorded by TestRecordDigests from runs with no column groups, so
// every column-path CSV is checked against the per-cell path.
//
//go:embed digests.json
var recordedDigests []byte

// digestBook resolves expected CSV digests: recorded ones first, then,
// for a key never recorded (a seed outside the recorded range, or the
// tests' smoke scale), a per-cell reference run made before timing.
type digestBook struct {
	recorded map[string]string
}

// parseDigests reads a digest file: a JSON object from key to hex
// SHA-256.
func parseDigests(data []byte) (*digestBook, error) {
	b := &digestBook{recorded: map[string]string{}}
	if err := json.Unmarshal(data, &b.recorded); err != nil {
		return nil, fmt.Errorf("perfbench: digests: %w", err)
	}
	for k, d := range b.recorded {
		if _, err := hex.DecodeString(d); err != nil || len(d) != 2*sha256.Size {
			return nil, fmt.Errorf("perfbench: digests: %s: %q is not a SHA-256 digest", k, d)
		}
	}
	return b, nil
}

func sweepKey(workload string, refs int, seed int64) string {
	return fmt.Sprintf("%s/refs=%d/seed=%d", workload, refs, seed)
}

func benchJobKey(js serve.JobSpec) string {
	return fmt.Sprintf("serve-bench/refs=%d/%s/%s", js.Refs, js.Benches[0], js.Kind)
}

func replayKey(refs int, seed int64) string {
	return fmt.Sprintf("serve-replay/refs=%d/seed=%d", refs, seed)
}

// expect returns the recorded digest for key, or runs the per-cell
// reference grid ref when none was recorded.
func (b *digestBook) expect(ctx context.Context, key string, ref func() (grid.Spec, error)) (string, bool, error) {
	if d, ok := b.recorded[key]; ok {
		return d, true, nil
	}
	gs, err := ref()
	if err != nil {
		return "", false, err
	}
	d, _, err := perCellRun(ctx, gs)
	return d, false, err
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// perCellRun runs a grid with no column groups and returns its CSV
// digest, the reference every column-path CSV must match, and how long
// Plan.WriteCSV took.
func perCellRun(ctx context.Context, gs grid.Spec) (string, float64, error) {
	plan, err := gs.Build()
	if err != nil {
		return "", 0, err
	}
	results, err := engine.RunGrouped(ctx, plan.Cells, nil, engine.Options{})
	if err != nil {
		return "", 0, err
	}
	for _, r := range results {
		if r.Err != nil {
			return "", 0, fmt.Errorf("perfbench: reference cell %s: %w", r.Label, r.Err)
		}
	}
	var buf bytes.Buffer
	start := time.Now()
	if _, err := plan.WriteCSV(&buf, results); err != nil {
		return "", 0, err
	}
	return sha(buf.Bytes()), ms(time.Since(start)), nil
}

// benchJobGrid is the grid the server builds for a bench-tenant job.
func benchJobGrid(js serve.JobSpec) (grid.Spec, error) {
	sources, err := grid.BenchSources(js.Benches, js.Kind, js.Refs)
	if err != nil {
		return grid.Spec{}, err
	}
	return grid.Spec{Sources: sources, Kind: js.Kind, Refs: js.Refs,
		Sizes: js.Sizes, Lines: js.Lines, Policies: js.Policies}, nil
}

// replayJobGrid is the grid the server builds for a replay job over the
// uploaded trace bytes: the source is named by the upload handle, and
// the stream is decoded the way the server decodes it.
func replayJobGrid(data []byte, js serve.JobSpec) grid.Spec {
	src := grid.NewSource(traceHandle(data), func() ([]trace.Ref, error) { return decodeTrace(data, js.Refs) })
	return grid.Spec{Sources: []grid.Source{src}, Kind: "trace", Refs: js.Refs,
		Sizes: js.Sizes, Lines: js.Lines, Policies: js.Policies}
}

// traceHandle is the content-addressed handle the server returns for an
// upload of data.
func traceHandle(data []byte) string { return "trace:" + sha(data)[:16] }
