package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// fakeServer answers the job API the way a server that refuses or fails
// jobs would.
func fakeServer(t *testing.T, submitCode int, doneState string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(submitCode)
		fmt.Fprint(w, `{"id":"j000000","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"type":"done","state":%q,"error":"injected"}`+"\n", doneState)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/csv", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "benchmark\n")
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

func runOneJob(t *testing.T, base string) (*phase, error) {
	t.Helper()
	ph := &phase{log: &opLog{}}
	c := newClient("bench", base, benchJobs(1, 1000), func(serve.JobSpec) string { return "" })
	defer c.http.CloseIdleConnections()
	js := c.jobs()
	tm, err := c.runJob(context.Background(), nil, js)
	ph.finish(js, tm, err)
	return ph, err
}

func assertFailedOp(t *testing.T, ph *phase) {
	t.Helper()
	l := ph.log
	if l.attempted != 1 || l.failed != 1 || len(l.latMS) != 1 || !math.IsInf(l.latMS[0], 1) {
		t.Errorf("log %+v: a refused or failed job counts as failed and misses every latency limit", *l)
	}
	if ph.finished != 0 {
		t.Errorf("a failed job counted as finished")
	}
}

func TestRefusedJobCountsAsFailed(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		s := fakeServer(t, code, serve.StateDone)
		ph, err := runOneJob(t, s.URL)
		if !errors.Is(err, errRefused) {
			t.Errorf("status %d: err %v, want errRefused", code, err)
		}
		assertFailedOp(t, ph)
	}
}

func TestFailedJobCountsAsFailed(t *testing.T) {
	s := fakeServer(t, http.StatusAccepted, serve.StateFailed)
	ph, err := runOneJob(t, s.URL)
	if err == nil {
		t.Fatal("a job that ended failed must be an error")
	}
	assertFailedOp(t, ph)
}

func TestParseProm(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nx_total 3\n" +
		`r_total{tenant="a",reason="backpressure"} 2` + "\n" +
		`r_total{tenant="b",reason="validation"} 1` + "\n" +
		`h_sum{family="dm"} 0.5` + "\n"
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p["x_total"] != 3 || p.sum("r_total") != 3 || p[`h_sum{family="dm"}`] != 0.5 {
		t.Errorf("parsed %v", p)
	}
}
