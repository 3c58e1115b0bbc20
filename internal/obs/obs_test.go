package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Jobs seen.")
	c.Add(3)
	c.Inc()
	g := r.NewGauge("queue_depth", "Queued jobs.")
	g.Set(7)
	g.Add(-2)
	r.NewGaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total Jobs seen.
# TYPE jobs_total counter
jobs_total 4
# HELP queue_depth Queued jobs.
# TYPE queue_depth gauge
queue_depth 5
# HELP uptime_seconds Uptime.
# TYPE uptime_seconds gauge
uptime_seconds 1.5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("wall_seconds", "Cell wall time.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// 0.05 and 0.1 land in le=0.1 (bounds are inclusive), 0.5 in le=1,
	// 5 in le=10, 50 in +Inf; buckets render cumulatively.
	want := `# HELP wall_seconds Cell wall time.
# TYPE wall_seconds histogram
wall_seconds_bucket{le="0.1"} 2
wall_seconds_bucket{le="1"} 3
wall_seconds_bucket{le="10"} 4
wall_seconds_bucket{le="+Inf"} 5
wall_seconds_sum 55.65
wall_seconds_count 5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestVecLabelsAndOverflow(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("admitted_total", "Admitted jobs.", []string{"tenant"}, 2)
	v.WithLabelValues("alice").Add(2)
	v.WithLabelValues("bob").Inc()
	// Third and fourth distinct tenants collapse into the overflow series.
	v.WithLabelValues("carol").Inc()
	v.WithLabelValues("dave").Inc()
	v.WithLabelValues("alice").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		`admitted_total{tenant="alice"} 3`,
		`admitted_total{tenant="bob"} 1`,
		`admitted_total{tenant="_overflow"} 2`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "admitted_total{"); n != 3 {
		t.Errorf("series count = %d, want 3 (cardinality bound)", n)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	mustPanic("duplicate name", func() { r.NewGauge("dup_total", "") })
	mustPanic("invalid name", func() { r.NewCounter("bad-name", "") })
	mustPanic("invalid label", func() { r.NewCounterVec("x_total", "", []string{"bad-label"}, 4) })
	mustPanic("zero cardinality", func() { r.NewCounterVec("y_total", "", []string{"l"}, 0) })
	mustPanic("empty buckets", func() { r.NewHistogram("z_seconds", "", nil) })
	mustPanic("unsorted buckets", func() { r.NewHistogram("w_seconds", "", []float64{2, 1}) })
	mustPanic("label arity", func() {
		v := r.NewCounterVec("arity_total", "", []string{"a", "b"}, 4)
		v.WithLabelValues("only-one")
	})
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewGaugeVec("g", "", []string{"l"}, 4)
	v.WithLabelValues("a\"b\\c\nd").Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `g{l="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("escaping: got %q, want to contain %q", b.String(), want)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g_now", "")
	h := r.NewHistogram("h_seconds", "", DurationBuckets())
	v := r.NewCounterVec("v_total", "", []string{"k"}, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 1000)
				v.WithLabelValues([]string{"a", "b", "c"}[i%3]).Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { // scrape concurrently with updates
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("one_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "one_total 1\n") {
		t.Errorf("body missing counter:\n%s", body)
	}
}

func TestServeDebugSurface(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("srv_total", "").Add(9)
	addr, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/metrics":             "srv_total 9",
		"/debug/vars":          "cmdline",
		"/debug/pprof/cmdline": "",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body missing %q:\n%s", path, want, body)
		}
	}
	// pprof index answers; don't pull a profile in tests.
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d", resp.StatusCode)
	}
}
