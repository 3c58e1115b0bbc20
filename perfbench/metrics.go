package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run of every workload. An op is a served job on serve
// and a simulated cell on the sweeps.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cell_refs_per_s", "refs/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"retained_mb", "MiB", "lower"},
}

// columnFamilies and cellFamilies are the policy families whose kernel
// cost the traced run reports per path.
var (
	columnFamilies = []string{"dm", "de", "lru", "fifo"}
	cellFamilies   = []string{"dm", "de", "lru", "fifo", "opt", "victim", "stream", "de-stream"}
)

// perLayer are the traced run's metrics, one set per module boundary
// the benchmark calls across. A layer a workload does not exercise
// reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"synth.ns_per_ref", "ns", "lower"},
		{"synth.alloc_b_per_ref", "B", "lower"},
		{"synth.refs", "count", "lower"},
		{"decode.ns_per_ref", "ns", "lower"},
		{"plan.build_ms", "ms", "lower"},
		{"plan.partition_ms", "ms", "lower"},
		{"plan.column_share", "ratio", "higher"},
		{"csv.write_ms", "ms", "lower"},
		{"column.units", "count", "lower"},
	}
	for _, f := range columnFamilies {
		defs = append(defs, metricDef{"column." + f + ".ns_per_member_ref", "ns", "lower"})
	}
	for _, f := range cellFamilies {
		defs = append(defs, metricDef{"cell." + f + ".ns_per_ref", "ns", "lower"})
	}
	return append(defs,
		metricDef{"engine.busy_s", "s", "lower"},
		metricDef{"engine.idle_s", "s", "lower"},
		metricDef{"engine.attempts_per_cell", "ratio", "lower"},
		metricDef{"checkpoint.appends", "count", "lower"},
		metricDef{"checkpoint.append_us", "us", "lower"},
		metricDef{"serve.submit_ms", "ms", "lower"},
		metricDef{"serve.queue_wait_ms", "ms", "lower"},
		metricDef{"serve.first_event_ms", "ms", "lower"},
		metricDef{"serve.stream_ms", "ms", "lower"},
		metricDef{"serve.csv_ms", "ms", "lower"},
		metricDef{"serve.rejected", "count", "lower"},
		metricDef{"serve.report_deltas", "1/job", "lower"},
		metricDef{"tracing.overhead_ratio", "ratio", "lower"},
	)
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// fill builds a metrics map holding exactly defs, from values keyed by
// name; a def missing from values is an error (a layer the workload
// does not exercise must be set to 0 explicitly).
func fill(defs []metricDef, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s was not measured", d.name)
		}
		if math.IsNaN(v) {
			return nil, fmt.Errorf("perfbench: metric %s is NaN", d.name)
		}
		if math.IsInf(v, 0) {
			// A failed op misses every latency limit; JSON has no
			// infinity, so the largest float stands in for it.
			v = math.Copysign(math.MaxFloat64, v)
		}
		out[d.name] = Metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile; minTailSamples is the sample count a p90 therefore needs.
const (
	minBeyond      = 10
	minTailSamples = minBeyond * 10
)

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples.
// It refuses a tail quantile with fewer than minBeyond samples beyond
// it; the median needs only one sample.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("perfbench: no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("perfbench: p%.0f of %d samples has %d beyond it, need %d", q*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the 0.5 percentile of a non-empty sample.
func median(samples []float64) float64 {
	v, err := percentile(samples, 0.5)
	if err != nil {
		return 0
	}
	return v
}

// opLog accumulates the timed phase's operations: one latency sample
// per attempted op, where a failed or refused op counts as failed and
// as missing every latency limit (+Inf).
type opLog struct {
	attempted, failed int
	latMS             []float64
}

func (l *opLog) ok(latMS float64) {
	l.attempted++
	l.latMS = append(l.latMS, latMS)
}

func (l *opLog) fail() {
	l.attempted++
	l.failed++
	l.latMS = append(l.latMS, math.Inf(1))
}

// latency fills the op latency metrics, refusing a p90 without enough
// samples beyond it.
func (l *opLog) latency(values map[string]float64) error {
	p50, err := percentile(l.latMS, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(l.latMS, 0.9)
	if err != nil {
		return err
	}
	values["op_p50_ms"], values["op_p90_ms"] = p50, p90
	return nil
}

const mib = 1 << 20
