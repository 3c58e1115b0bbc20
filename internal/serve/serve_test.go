package serve

// The service's deterministic load suite: hundreds of concurrent jobs
// from several tenants through a real HTTP stack (httptest), with
// injected transient stream faults and permanent simulator panics, one
// kill-and-restart mid-load plus a manually torn journal tail, and a
// byte-identity check of every job's final CSV against a direct engine
// run of the same grid — the dynex-sweep equivalence the service
// promises. Run under -race by `make race` / CI's serve-smoke job.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// testConfig is the base server tuning for the suite: small delays,
// fault injection enabled.
func testConfig(dir string) Config {
	return Config{
		DataDir:      dir,
		QueueDepth:   400,
		MaxActive:    8,
		TenantActive: 4,
		Workers:      2,
		Retry:        engine.Retry{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		DrainGrace:   30 * time.Second,
		Heartbeat:    25 * time.Millisecond,
		EnableFaults: true,
	}
}

// loadJobs builds the suite's deterministic job mix: n jobs across the
// tenants, cycling benchmarks, geometries, and policies, with a
// transient stream fault on every 5th job and an injected simulator
// panic on every 11th.
func loadJobs(n int) []JobSpec {
	benches := [][]string{{"gcc"}, {"li"}, {"spice"}, {"gcc", "li"}}
	kinds := []string{"instr", "data", "mixed"}
	var jobs []JobSpec
	for i := 0; i < n; i++ {
		js := JobSpec{
			Benches:  benches[i%len(benches)],
			Kind:     kinds[i%len(kinds)],
			Refs:     2000 + 500*(i%4),
			Sizes:    []uint64{1024, 4096},
			Lines:    []uint64{4},
			Policies: []string{"dm", "de"},
		}
		if i%5 == 0 {
			js.Inject = "stream-fail=2"
		} else if i%11 == 0 {
			js.Inject = "panic=/dm"
		}
		jobs = append(jobs, js)
	}
	return jobs
}

// directCSV computes a job's ground-truth CSV the way dynex-sweep
// would: shared grid plan, same fault injection, same engine options,
// no service in between.
func directCSV(t *testing.T, cfg Config, st *store, js JobSpec) []byte {
	t.Helper()
	gs, err := js.gridSpec(st)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gs.Build()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.ParseDirective(js.Inject)
	if err != nil {
		t.Fatal(err)
	}
	inj.Apply(&plan)
	results, err := engine.Run(context.Background(), plan.Cells, engine.Options{
		Workers: cfg.Workers, Retry: cfg.Retry, CellTimeout: cfg.CellTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := plan.WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJob(t *testing.T, url, tenant string, js JobSpec) (id string, code int) {
	t.Helper()
	body, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServeLoadKillRestart is the headline robustness test: ≥200
// concurrent jobs from 3 tenants with injected faults, a hard kill
// mid-load plus one manually torn journal tail, a restart that resumes
// everything, and byte-identical CSVs for every single job.
func TestServeLoadKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	dir := t.TempDir()
	cfg := testConfig(dir)
	tenants := []string{"alice", "bob", "carol"}
	jobs := loadJobs(210)

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	runDone1 := make(chan struct{})
	go func() { defer close(runDone1); _ = s1.Run(ctx1) }()
	ts1 := httptest.NewServer(s1.Handler())

	// Submit every job concurrently — the admission path itself is part
	// of what runs under -race.
	ids := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, code := postJob(t, ts1.URL, tenants[i%len(tenants)], jobs[i])
			if code != http.StatusAccepted {
				t.Errorf("job %d: status %d", i, code)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Let part of the load complete, then kill the server cold while a
	// job is mid-run — some cells journaled, at least four still to run
	// (a two-benchmark job between its sources) — so the restart has a
	// resume to perform. Most jobs are two columns that finish
	// together, so a kill at an arbitrary moment can land between jobs.
	midJob := func() bool {
		for _, id := range ids {
			j := s1.getJob(id)
			if j == nil || j.state() != StateRunning {
				continue
			}
			if done, total := j.progress(); done == 0 || total-done < 4 {
				continue
			}
			if fi, err := os.Stat(s1.st.journalPath(id)); err == nil && fi.Size() > 0 {
				return true
			}
		}
		return false
	}
	jobsDone := func() float64 { return metric(t, s1, "dynex_serve_jobs_done_total") }
	deadline := time.Now().Add(60 * time.Second)
	for (jobsDone() < 40 || !midJob()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := jobsDone(); got < 40 {
		t.Fatalf("only %v jobs done before kill deadline", got)
	}
	s1.Kill()
	ts1.Close()
	cancel1()
	<-runDone1

	// Tear one interrupted job's journal mid-record — the crash landed
	// inside a write. Resume must drop the torn tail and re-run only
	// that cell.
	st := s1.st
	torn := ""
	for _, id := range ids {
		j := s1.getJob(id)
		if j == nil || terminal(j.state()) {
			continue
		}
		data, err := os.ReadFile(st.journalPath(id))
		if err != nil || len(bytes.TrimSpace(data)) == 0 {
			continue
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		cut := len(data) - len(lines[len(lines)-1])/2 - 1
		if err := os.Truncate(st.journalPath(id), int64(cut)); err != nil {
			t.Fatal(err)
		}
		torn = id
		break
	}
	if torn == "" {
		t.Log("no interrupted journal to tear (kill landed between jobs); torn-tail path covered by faultinject suite")
	}

	// Restart over the same data directory: recovery re-enqueues the
	// interrupted jobs and their journals turn re-runs into resumes.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, s2, "dynex_serve_jobs_resumed_total") == 0 {
		t.Error("restart resumed no jobs; the kill should have interrupted some")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	runDone2 := make(chan struct{})
	go func() { defer close(runDone2); _ = s2.Run(ctx2) }()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		cancel2()
		<-runDone2
	}()

	// Wait for the whole load to reach terminal states.
	deadline = time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		allDone := true
		for _, id := range ids {
			var stt Status
			if getJSON(t, ts2.URL+"/v1/jobs/"+id, &stt) != http.StatusOK {
				t.Fatalf("job %s vanished after restart", id)
			}
			if !terminal(stt.State) {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The list holds every job, terminal ones loaded from disk
	// included, in admission (ID) order.
	var list struct{ Jobs []Status }
	getJSON(t, ts2.URL+"/v1/jobs", &list)
	if len(list.Jobs) != len(ids) {
		t.Errorf("GET /v1/jobs listed %d jobs, want %d", len(list.Jobs), len(ids))
	}
	for k := 1; k < len(list.Jobs); k++ {
		if list.Jobs[k-1].ID >= list.Jobs[k].ID {
			t.Errorf("GET /v1/jobs out of ID order at %d: %s before %s", k, list.Jobs[k-1].ID, list.Jobs[k].ID)
			break
		}
	}

	// Every job: terminal, its CSV byte-identical to the direct run, and
	// its report crediting the journal with exactly the cells it
	// restored.
	for i, id := range ids {
		var stt Status
		getJSON(t, ts2.URL+"/v1/jobs/"+id, &stt)
		if stt.State != StateDone {
			t.Errorf("job %s (%d): state %s, err %q", id, i, stt.State, stt.Error)
			continue
		}
		var rep struct {
			Checkpoint struct{ Hits int } `json:"checkpoint"`
		}
		if code := getJSON(t, ts2.URL+"/v1/jobs/"+id+"/report", &rep); code != http.StatusOK {
			t.Errorf("job %s: report status %d", id, code)
		} else if rep.Checkpoint.Hits != stt.Resumed {
			t.Errorf("job %s: report checkpoint.hits = %d, status resumed_cells = %d", id, rep.Checkpoint.Hits, stt.Resumed)
		}
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/csv")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("job %s: csv status %d: %s", id, resp.StatusCode, got)
			continue
		}
		want := directCSV(t, cfg, st, jobs[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %s (%d): CSV differs from direct run\n--- got\n%s--- want\n%s", id, i, got, want)
		}
		rows := strings.Count(string(want), "\n") - 1
		cells := len(jobs[i].Benches) * len(jobs[i].Sizes) * len(jobs[i].Lines) * len(jobs[i].Policies)
		if stt.FailedCells != cells-rows {
			t.Errorf("job %s: FailedCells = %d, want %d", id, stt.FailedCells, cells-rows)
		}
	}
	if torn != "" {
		var stt Status
		getJSON(t, ts2.URL+"/v1/jobs/"+torn, &stt)
		if stt.Resumed == 0 {
			t.Errorf("torn job %s resumed no cells", torn)
		}
	}
	if metric(t, s2, "dynex_checkpoint_hits_total") == 0 {
		t.Error("restart replayed no journaled cells; resume did not engage")
	}
	// Every cell the restarted server completed was journaled, and each
	// append was booked on the shared checkpoint series.
	writes := metric(t, s2, "dynex_checkpoint_writes_total")
	if completed := metric(t, s2, "dynex_serve_cells_completed_total"); writes == 0 || writes != completed {
		t.Errorf("dynex_checkpoint_writes_total = %v, dynex_serve_cells_completed_total = %v; want equal and positive", writes, completed)
	}
}

// metric renders the server's registry, the bytes GET /metrics serves,
// and sums every sample of the named series whose labels include each
// of labels (for example `reason="validation"`). The family must be
// declared, so a renamed series fails instead of reading 0.
func metric(t *testing.T, s *Server, name string, labels ...string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE "+name+" ") {
		t.Fatalf("metric family %s is not on /metrics", name)
	}
	var sum float64
samples:
	for _, line := range strings.Split(buf.String(), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(series, l) {
				continue samples
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestServeBackpressure pins the 429 contract: with the queue full,
// admission refuses with Retry-After instead of buffering, and readyz
// flips not-ready.
func TestServeBackpressure(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.QueueDepth = 2
	cfg.MaxActive = 1
	cfg.TenantActive = 1
	release := make(chan struct{})
	started := make(chan string, 16)
	cfg.BeforeJob = func(id string) { started <- id; <-release }

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	js := loadJobs(1)[0]
	js.Inject = ""
	// One running (held in BeforeJob), two queued, then overflow.
	if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusAccepted {
		t.Fatalf("first job: %d", code)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusAccepted {
			t.Fatalf("queued job %d: %d", i, code)
		}
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(mustJSON(t, js)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow admission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while backlogged = %d, want 503", code)
	}
	if n := metric(t, s, "dynex_serve_jobs_rejected_total", `reason="backpressure"`); n != 1 {
		t.Errorf("backpressure rejections = %v, want 1", n)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d, want 200 (liveness is not readiness)", code)
	}

	close(release)
	waitAllTerminal(t, ts.URL, 30*time.Second)
}

// TestServeDrainZeroLoss pins graceful drain: running jobs cancelled by
// an expired grace window stay resumable, nothing is lost, and — via
// the journal's raw line count — nothing is simulated twice.
func TestServeDrainZeroLoss(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.MaxActive = 2
	cfg.DrainGrace = 20 * time.Millisecond
	started := make(chan string, 16)
	cfg.BeforeJob = func(id string) { started <- id }

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())

	// Long jobs, so the drain catches them mid-run.
	js := JobSpec{
		Benches: []string{"gcc"}, Kind: "instr", Refs: 2_000_000,
		Sizes: []uint64{1024, 2048, 4096, 8192}, Lines: []uint64{4},
		Policies: []string{"dm", "de", "lru"},
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, code := postJob(t, ts.URL, fmt.Sprintf("t%d", i), js)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: %d", i, code)
		}
		ids = append(ids, id)
	}
	<-started
	<-started

	// SIGTERM: drain with a grace window far shorter than the jobs.
	cancel()
	<-done
	if d := metric(t, s, "dynex_serve_drain_seconds"); d <= 0 {
		t.Error("drain time not recorded")
	}

	// While draining/stopped, admission must refuse with 503.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(mustJSON(t, js)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("admission while draining = %d, want 503", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	ts.Close()

	// Restart: everything resumes and completes; journals hold each cell
	// exactly once (raw line count == unique fingerprints == grid size).
	cfg.BeforeJob = nil
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); _ = s2.Run(ctx2) }()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); cancel2(); <-done2 }()
	waitAllTerminal(t, ts2.URL, 120*time.Second)

	want := directCSV(t, cfg, s2.st, js)
	totalCells := len(js.Benches) * len(js.Sizes) * len(js.Lines) * len(js.Policies)
	for _, id := range ids {
		var stt Status
		getJSON(t, ts2.URL+"/v1/jobs/"+id, &stt)
		if stt.State != StateDone {
			t.Errorf("job %s: state %s after drain+restart", id, stt.State)
			continue
		}
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/csv")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("job %s: drained+resumed CSV differs from direct run", id)
		}
		data, err := os.ReadFile(s2.st.journalPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(data, []byte("\n")); lines != totalCells {
			t.Errorf("job %s: journal has %d lines for %d cells (lost or duplicated work)", id, lines, totalCells)
		}
	}
}

// TestServeStreamAndCancel covers the streaming surface: heartbeats
// while idle, per-cell events, the terminal marker, SSE framing, and
// client cancellation of queued and running jobs.
func TestServeStreamAndCancel(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxActive = 1
	cfg.TenantActive = 1
	release := make(chan struct{})
	started := make(chan string, 4)
	cfg.BeforeJob = func(id string) { started <- id; <-release }

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	js := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 2000,
		Sizes: []uint64{1024}, Lines: []uint64{4}, Policies: []string{"dm", "de"}}
	running, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	queued, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	<-started

	// Cancel the queued job: it must go terminal without running.
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var stt Status
	if err := json.NewDecoder(resp.Body).Decode(&stt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stt.State != StateCancelled {
		t.Errorf("cancelled queued job state = %s", stt.State)
	}

	// Stream the running job: a heartbeat arrives while it is held, then
	// cells, then the done marker.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + running + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	dec := json.NewDecoder(streamResp.Body)
	var ev Event
	if err := dec.Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "heartbeat" {
		t.Errorf("first stream event %q, want heartbeat (job is held)", ev.Type)
	}
	close(release)
	var cells int
	var finalReport []byte
	for {
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		switch ev.Type {
		case "cell":
			cells++
			if ev.MissRate == "" || ev.Accesses == 0 {
				t.Errorf("cell event missing payload: %+v", ev)
			}
		case "report-delta":
			if len(ev.Report) == 0 {
				t.Errorf("report-delta without a report payload: %+v", ev)
			}
			if ev.Final {
				finalReport = append([]byte(nil), ev.Report...)
			}
		case "done":
			if cells != 2 {
				t.Errorf("streamed %d cells, want 2", cells)
			}
			if ev.State != StateDone {
				t.Errorf("done event state %s", ev.State)
			}
			if finalReport == nil {
				t.Error("stream finished without a final report-delta frame")
			}
			goto sse
		case "heartbeat": // allowed between cells
		default:
			t.Errorf("unexpected event %+v", ev)
		}
	}
sse:
	// The finished stream replays in SSE framing too.
	req, err = http.NewRequest("GET", ts.URL+"/v1/jobs/"+running+"/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	if !strings.HasPrefix(string(body), "data: ") {
		t.Errorf("SSE framing missing:\n%s", body)
	}

	// The job report is a RunReport JSON, and the stream's final
	// report-delta frame is pinned to it: compacting the endpoint's
	// indented body must reproduce the frame's bytes exactly.
	reportResp, err := http.Get(ts.URL + "/v1/jobs/" + running + "/report")
	if err != nil {
		t.Fatal(err)
	}
	reportBody, _ := io.ReadAll(reportResp.Body)
	reportResp.Body.Close()
	if reportResp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", reportResp.StatusCode)
	}
	var report map[string]any
	if err := json.Unmarshal(reportBody, &report); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if report["schema"] == nil {
		t.Error("report missing schema field")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, reportBody); err != nil {
		t.Fatal(err)
	}
	if finalReport != nil && !bytes.Equal(compact.Bytes(), finalReport) {
		t.Errorf("final report-delta frame diverges from the report endpoint:\nframe:    %s\nendpoint: %s",
			finalReport, compact.Bytes())
	}
}

// TestServeTraceUploadJob runs a job over an uploaded trace and checks
// the CSV matches a direct run over the same bytes.
func TestServeTraceUploadJob(t *testing.T) {
	cfg := testConfig(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := w.Write(trace.Ref{Addr: uint64(i%97) * 4, Kind: trace.Instr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Trace string `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(up.Trace, "trace:") {
		t.Fatalf("upload handle %q", up.Trace)
	}

	js := JobSpec{Trace: up.Trace, Refs: 4096,
		Sizes: []uint64{1024}, Lines: []uint64{4}, Policies: []string{"dm", "de"}}
	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("trace job: %d", code)
	}
	waitAllTerminal(t, ts.URL, 30*time.Second)

	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := directCSV(t, cfg, s.st, js)
	if !bytes.Equal(got, want) {
		t.Errorf("trace job CSV differs:\n--- got\n%s--- want\n%s", got, want)
	}
	if !strings.Contains(string(got), up.Trace+",trace,") {
		t.Errorf("CSV benchmark column should carry the trace handle:\n%s", got)
	}
}

// TestServeValidation pins the graceful-degradation refusals.
func TestServeValidation(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxRefs = 10_000
	cfg.MaxCells = 8
	cfg.EnableFaults = false
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ok := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 1000,
		Sizes: []uint64{1024}, Lines: []uint64{4}, Policies: []string{"dm"}}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"no source", func(j *JobSpec) { j.Benches = nil }},
		{"unknown bench", func(j *JobSpec) { j.Benches = []string{"nope"} }},
		{"repeated bench", func(j *JobSpec) { j.Benches = []string{"gcc", "li", "gcc"} }},
		{"bad policy", func(j *JobSpec) { j.Policies = []string{"wat:x=1"} }},
		{"bad kind", func(j *JobSpec) { j.Kind = "bogus" }},
		{"refs cap", func(j *JobSpec) { j.Refs = 1_000_000 }},
		{"cell cap", func(j *JobSpec) {
			j.Sizes = []uint64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
		}},
		{"bad geometry", func(j *JobSpec) { j.Sizes = []uint64{3000} }},
		{"faults disabled", func(j *JobSpec) { j.Inject = "stream-fail=1" }},
		{"unknown trace", func(j *JobSpec) { j.Benches = nil; j.Trace = "trace:deadbeef00000000" }},
	}
	for _, tc := range cases {
		js := ok
		tc.mutate(&js)
		if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if n := metric(t, s, "dynex_serve_jobs_rejected_total", `reason="validation"`); n != float64(len(cases)) {
		t.Errorf("validation rejections = %v, want %d", n, len(cases))
	}
	// /metrics is the only counter surface: /debug/vars carries Go's own
	// variables and nothing of the service's.
	var vars map[string]json.RawMessage
	getJSON(t, ts.URL+"/debug/vars", &vars)
	for k := range vars {
		if strings.HasPrefix(k, "dynex") {
			t.Errorf("/debug/vars publishes %q", k)
		}
	}
	if _, code := postJob(t, ts.URL, "alice", ok); code != http.StatusAccepted {
		t.Errorf("valid job refused")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/zzz", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}

	// With faults enabled, a directive must still parse as dynex-sweep's
	// -inject does: N is the whole rest of stream-fail=N.
	fs, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fs.Handler())
	defer fts.Close()
	for _, bad := range []string{"stream-fail=3abc", "stream-fail=0", "panic=", "stream-fail"} {
		js := ok
		js.Inject = bad
		if _, code := postJob(t, fts.URL, "alice", js); code != http.StatusBadRequest {
			t.Errorf("inject %q: status %d, want 400", bad, code)
		}
	}
}

// serveOne runs js on a fresh server and returns its terminal status
// and CSV.
func serveOne(t *testing.T, cfg Config, js JobSpec) (Status, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	waitAllTerminal(t, ts.URL, 60*time.Second)
	var stt Status
	getJSON(t, ts.URL+"/v1/jobs/"+id, &stt)
	if stt.State != StateDone {
		t.Fatalf("job state %s, err %q", stt.State, stt.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	csv, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return stt, string(csv)
}

// TestServeInjectPanicDirect pins panic=SUBSTR on Direct cells: a served
// job with panic=/opt withholds its opt rows, as dynex-sweep -inject
// panic=/opt does, and its CSV equals the direct run's.
func TestServeInjectPanicDirect(t *testing.T) {
	cfg := testConfig(t.TempDir())
	js := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 2000,
		Sizes: []uint64{1024, 4096}, Lines: []uint64{4}, Policies: []string{"dm", "opt"},
		Inject: "panic=/opt"}
	stt, got := serveOne(t, cfg, js)
	if stt.FailedCells != 2 {
		t.Errorf("FailedCells = %d, want the 2 opt cells", stt.FailedCells)
	}
	rows := strings.Split(strings.TrimSpace(got), "\n")
	if len(rows) != 3 { // header + two dm rows
		t.Fatalf("CSV has %d rows, want 3:\n%s", len(rows), got)
	}
	for _, row := range rows[1:] {
		if !strings.Contains(row, ",dm,") {
			t.Errorf("unexpected surviving row %q", row)
		}
	}
	if want := directCSV(t, cfg, nil, js); got != string(want) {
		t.Errorf("served CSV differs from the direct run:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestServeInjectStreamFailPerSource pins stream-fail=N's budget: each
// source fails its own N times, so a two-bench job with stream-fail=1
// and no retry fails one unit per source, not one in total. Every cell
// is its own unit here (one size), so that is one cell per source.
func TestServeInjectStreamFailPerSource(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Retry = engine.Retry{}
	js := JobSpec{Benches: []string{"gcc", "li"}, Kind: "instr", Refs: 2000,
		Sizes: []uint64{4096}, Lines: []uint64{4}, Policies: []string{"dm", "de"},
		Inject: "stream-fail=1"}
	stt, got := serveOne(t, cfg, js)
	if stt.FailedCells != 2 {
		t.Errorf("FailedCells = %d, want 2 (one per source)", stt.FailedCells)
	}
	for _, bench := range js.Benches {
		if n := strings.Count(got, "\n"+bench+","); n != 1 {
			t.Errorf("%s: %d CSV rows, want 1 (one of its two cells failed):\n%s", bench, n, got)
		}
	}
}

// TestServeValidationHugeSpec pins admission against a one-request
// denial of service: a 951,764-byte spec whose four list lengths
// multiply to 2^64 + 230 cells — 230 after int wraparound, under
// dynex-serve's default 4096-cell cap — must be refused with a 400
// quickly, without
// building one benchmark program per listed name or looping over the
// grid.
func TestServeValidationHugeSpec(t *testing.T) {
	nBench, nSize, nLine, nPol := 42_618, 75_563, 82_609, 69_341
	if wrapped := uint64(nBench) * uint64(nSize) * uint64(nLine) * uint64(nPol); wrapped != 230 {
		t.Fatalf("list lengths wrap to %d cells, want 230", wrapped)
	}
	list := func(item string, n int) string {
		return strings.TrimSuffix(strings.Repeat(item+",", n), ",")
	}
	body := `{"benches":[` + list(`"li"`, nBench) + `],"refs":10000000,` +
		`"sizes":[` + list("64", nSize) + `],"lines":[` + list("4", nLine) + `],` +
		`"policies":[` + list(`"dm"`, nPol) + `]}`
	if len(body) != 951_764 {
		t.Fatalf("spec is %d bytes, want 951764", len(body))
	}
	cfg := testConfig(t.TempDir())
	cfg.MaxRefs, cfg.MaxCells = 10_000_000, 4096 // dynex-serve's defaults
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	// Decoding the body is most of the cost (~0.1 s); the race detector
	// slows it about eightfold, so its bound is scaled.
	limit := time.Second
	if raceEnabled() {
		limit = 5 * time.Second
	}
	if elapsed > limit {
		t.Errorf("refusal took %v, want under %v", elapsed, limit)
	}
}

// raceEnabled reports whether the race detector instruments this test
// binary (go test records -race in the binary's build settings).
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestQueueFairness pins round-robin dispatch: a tenant flooding the
// queue cannot starve another tenant's single job.
func TestQueueFairness(t *testing.T) {
	q := newQueue(100, 2, 1)
	mkJob := func(tenant, id string) *job {
		return &job{m: Manifest{ID: id, Tenant: tenant, State: StateQueued}}
	}
	for i := 0; i < 10; i++ {
		if !q.push(mkJob("flood", fmt.Sprintf("f%02d", i))) {
			t.Fatal("push refused below capacity")
		}
	}
	if !q.push(mkJob("quiet", "q0")) {
		t.Fatal("push refused below capacity")
	}
	first := q.next()
	second := q.next()
	tenants := map[string]bool{
		first.manifest().Tenant:  true,
		second.manifest().Tenant: true,
	}
	if !tenants["quiet"] {
		t.Errorf("first two dispatches %v; round-robin should reach the quiet tenant", tenants)
	}
	// With per-tenant quota 1 and both slots claimable, a third dispatch
	// must wait until a slot frees.
	q.release(first.manifest().Tenant)
	if j := q.next(); j == nil {
		t.Fatal("dispatch after release returned nil")
	}
}

// mustJSON marshals v for request bodies.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitAllTerminal polls the job list until every job is terminal.
func waitAllTerminal(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var out struct{ Jobs []Status }
		getJSON(t, url+"/v1/jobs", &out)
		all := true
		for _, j := range out.Jobs {
			if !terminal(j.State) {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs did not reach terminal states in time")
}

// TestServeMultisimModes pins the job runner's column partitioning: a
// power-of-two sweep job mixes both execution shapes — size columns
// for dm/de/lru/fifo, single cells for opt — and its served CSV is
// byte-identical to an in-process per-cell engine.Run of the same plan.
func TestServeMultisimModes(t *testing.T) {
	js := JobSpec{
		Benches:  []string{"gcc"},
		Kind:     "instr",
		Refs:     4000,
		Sizes:    []uint64{1024, 2048, 4096, 8192},
		Lines:    []uint64{4, 16},
		Policies: []string{"dm", "de", "lru", "fifo", "de:store=hashed*4", "opt"},
	}
	cfg := testConfig(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		cancel()
		<-done
	}()

	gs, err := js.gridSpec(s.st)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gs.Build()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(plan.Cells))
	for i := range all {
		all[i] = i
	}
	if groups := plan.Partition(all, nil); len(groups) != 10 {
		t.Fatalf("job grid partitions into %d columns, want 10 (5 column policies x 2 lines)", len(groups))
	}

	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	var stt Status
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/v1/jobs/"+id, &stt)
		if terminal(stt.State) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stt.State != StateDone {
		t.Fatalf("job state %s, err %q", stt.State, stt.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := directCSV(t, cfg, s.st, js); !bytes.Equal(got, want) {
		t.Errorf("served CSV differs from per-cell engine run:\n--- got\n%s--- want\n%s", got, want)
	}
}
