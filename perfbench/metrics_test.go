package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"testing"
)

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric %q: name must match %s", d.name, metricName)
		}
		if !unitPattern.MatchString(d.unit) {
			t.Errorf("metric %q: unit %q must match %s", d.name, d.unit, unitPattern)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better is %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables of this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] || w.Why == "" {
			t.Errorf("workload %d: %+v, want %s with a reason", i, w, workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v, want %+v with a bound in (0, 0.25]", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, m, d)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := percentile(samples(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	got, err := percentile(samples(minTailSamples), 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if got, err := percentile(samples(1), 0.5); err != nil || got != 1 {
		t.Errorf("median of one sample = %v, %v", got, err)
	}
	var l opLog
	for i := 0; i < 50; i++ {
		l.ok(1)
	}
	if err := l.latency(map[string]float64{}); err == nil {
		t.Error("op latency over 50 samples must refuse its p90")
	}
}

func TestFailedOpMissesLatencyLimit(t *testing.T) {
	var l opLog
	for i := 0; i < 95; i++ {
		l.ok(10)
	}
	for i := 0; i < 15; i++ {
		l.fail()
	}
	if l.attempted != 110 || l.failed != 15 {
		t.Fatalf("attempted %d failed %d, want 110 and 15", l.attempted, l.failed)
	}
	v := map[string]float64{}
	if err := l.latency(v); err != nil {
		t.Fatal(err)
	}
	if v["op_p50_ms"] != 10 || !math.IsInf(v["op_p90_ms"], 1) {
		t.Errorf("p50 %v p90 %v; failed ops must sort past every limit", v["op_p50_ms"], v["op_p90_ms"])
	}
	m, err := fill(endToEnd[2:4], v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(m); err != nil || m["op_p90_ms"].Value != math.MaxFloat64 {
		t.Errorf("an infinite latency must encode as the largest float: %v %v", m["op_p90_ms"], err)
	}
}

func TestFillRequiresEveryMetric(t *testing.T) {
	if _, err := fill(endToEnd, map[string]float64{"setup_s": 1}); err == nil {
		t.Error("a metric that was not measured must be an error")
	}
}
