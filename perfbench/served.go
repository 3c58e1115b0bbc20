package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/spec"
)

// server is one in-process dynex-serve on a loopback listener.
type server struct {
	dir     string
	base    string
	hs      *http.Server
	cancel  context.CancelFunc
	runDone chan error
	hsDone  chan error
}

// startServer starts serve.New with its default Config over an empty
// data directory and returns once GET /readyz answers 200.
func startServer(dir string, rec *recorder, parent uint64) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &server{dir: dir, runDone: make(chan error, 1), hsDone: make(chan error, 1)}
	err := rec.span(parent, "server.start", dir, func(uint64) error {
		srv, err := serve.New(serve.Config{DataDir: dir})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.base = "http://" + ln.Addr().String()
		s.hs = &http.Server{Handler: srv.Handler()}
		ctx, cancel := context.WithCancel(context.Background())
		s.cancel = cancel
		go func() { s.runDone <- srv.Run(ctx) }()
		go func() { s.hsDone <- s.hs.Serve(ln) }()
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.span(parent, "http.readyz", "/readyz", func(uint64) error {
		client := &http.Client{Timeout: 5 * time.Second}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			resp, err := client.Get(s.base + "/readyz")
			if err != nil {
				continue
			}
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		return fmt.Errorf("perfbench: server at %s never became ready", s.base)
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server, closes its listener, waits for both loops to
// return, and removes the data directory.
func (s *server) stop() {
	s.cancel()
	<-s.runDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a straggling connection only delays removal
	<-s.hsDone
	os.RemoveAll(s.dir)
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// upload posts trace bytes and returns the server's handle.
func upload(base string, data []byte) (string, error) {
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	defer drain(resp)
	var out struct {
		Trace string `json:"trace"`
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("perfbench: trace upload: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.Trace, nil
}

// jobTiming is one served job's client-side timeline.
type jobTiming struct {
	total, submit, firstEvent, stream, csv time.Duration
}

// client drives one tenant closed-loop over its own connection: submit,
// read the JSONL results stream to its done event, fetch the CSV, check
// it, and only then submit the next job.
type client struct {
	tenant string
	base   string
	http   *http.Client
	jobs   func() serve.JobSpec
	expect func(serve.JobSpec) string
}

func newClient(tenant, base string, jobs func() serve.JobSpec, expect func(serve.JobSpec) string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tenant: tenant, base: base, http: &http.Client{Transport: tr, Timeout: time.Minute},
		jobs: jobs, expect: expect}
}

// errRefused marks an admission refused with 429 or 503.
var errRefused = errors.New("perfbench: job refused")

// runJob serves one job end to end and returns its timeline, or the
// reason it failed: refused, failed on the server, or an output
// mismatch. A non-nil rec records the job's spans.
func (c *client) runJob(ctx context.Context, rec *recorder, js serve.JobSpec) (jobTiming, error) {
	var t jobTiming
	start := time.Now()
	err := rec.span(0, "job", c.tenant, func(root uint64) error {
		body, err := json.Marshal(js)
		if err != nil {
			return err
		}
		var id string
		if err := rec.span(root, "http.submit", "POST /v1/jobs", func(uint64) error {
			id, err = c.submit(ctx, body)
			return err
		}); err != nil {
			return err
		}
		t.submit = time.Since(start)
		streamStart := time.Now()
		if err := rec.span(root, "http.results", id, func(uint64) error {
			return c.results(ctx, id, js, start, &t)
		}); err != nil {
			return err
		}
		t.stream = time.Since(streamStart)
		csvStart := time.Now()
		var csv []byte
		if err := rec.span(root, "http.csv", id, func(uint64) error {
			csv, err = c.get(ctx, "/v1/jobs/"+id+"/csv")
			return err
		}); err != nil {
			return err
		}
		t.csv = time.Since(csvStart)
		if got, want := sha(csv), c.expect(js); got != want {
			return fmt.Errorf("perfbench: job %s CSV digest %s, want %s", id, got, want)
		}
		return nil
	})
	t.total = time.Since(start)
	return t, err
}

func (c *client) submit(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", c.tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", fmt.Errorf("%w: %s", errRefused, resp.Status)
	default:
		return "", fmt.Errorf("perfbench: submit: %s", resp.Status)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// results reads the job's JSONL stream to its done event and checks
// every cell: one event per grid cell, and misses ≤ accesses = the
// job's stream length (hits + misses = accesses with hits ≥ 0).
func (c *client) results(ctx context.Context, id string, js serve.JobSpec, start time.Time, t *jobTiming) error {
	resp, err := c.do(ctx, "/v1/jobs/"+id+"/results")
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("perfbench: results: %s", resp.Status)
	}
	want := len(js.Sizes) * len(js.Lines) * len(js.Policies)
	cells := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		if t.firstEvent == 0 {
			t.firstEvent = time.Since(start)
		}
		switch ev.Type {
		case "cell":
			cells++
			if ev.Accesses != uint64(js.Refs) || ev.Misses > ev.Accesses {
				return fmt.Errorf("perfbench: job %s cell %s: %d misses of %d accesses, stream length %d",
					id, ev.Label, ev.Misses, ev.Accesses, js.Refs)
			}
		case "cell_error":
			return fmt.Errorf("perfbench: job %s cell %s failed: %s", id, ev.Label, ev.Error)
		case "done":
			if ev.State != serve.StateDone {
				return fmt.Errorf("perfbench: job %s ended %s: %s", id, ev.State, ev.Error)
			}
			if cells != want {
				return fmt.Errorf("perfbench: job %s streamed %d cells, want %d", id, cells, want)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("perfbench: job %s stream ended without a done event", id)
}

// do sends a GET for path on the client's connection.
func (c *client) do(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.http.Do(req)
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.do(ctx, path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("perfbench: GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// phase is one stretch of the serve workload shared by both clients.
type phase struct {
	mu       sync.Mutex
	log      *opLog
	finished int
	refs     uint64 // cell references of finished jobs
	timings  []jobTiming
}

// finish books one job: a failed one as a failed op that misses every
// latency limit.
func (p *phase) finish(js serve.JobSpec, t jobTiming, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.log.fail()
		return
	}
	p.log.ok(ms(t.total))
	p.finished++
	p.refs += uint64(js.Refs * len(js.Sizes) * len(js.Lines) * len(js.Policies))
	p.timings = append(p.timings, t)
}

// samples is the number of latency samples the phase has booked.
func (p *phase) samples() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log.latMS)
}

// runPhase runs both clients closed-loop, each submitting its next job
// while more(jobs it has run) holds and ctx is live, and waits for both.
// It returns the cell references served and when the last job ended.
func runPhase(ctx context.Context, clients []*client, rec *recorder, ph *phase, more func(n int) bool) (uint64, time.Time) {
	ends := make([]time.Time, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for n := 0; more(n) && ctx.Err() == nil; n++ {
				js := c.jobs()
				t, err := c.runJob(ctx, rec, js)
				ends[i] = time.Now()
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s job failed: %v\n", c.tenant, err)
				}
				ph.finish(js, t, err)
			}
		}(i, c)
	}
	wg.Wait()
	var last time.Time
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return ph.refs, last
}

// runServe runs the serve workload: repeated server set-ups (the last
// one stays up), a warm-up, then two closed-loop tenants through the
// measuring phase.
func runServe(ctx context.Context, cfg config, workload string) (*report, error) {
	rep := newReport(workload)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	sc := cfg.scale
	var (
		synth synthStats
		data  []byte
		err   error
	)
	if err := rec.span(0, "job", "replay trace", func(root uint64) error {
		data, err = replayTrace(cfg.seed, sc.serveRefs, rec, root, &synth)
		if err != nil {
			return err
		}
		decStart := time.Now()
		var decoded int
		err := rec.span(root, "decode", "replay trace", func(uint64) error {
			refs, err := decodeTrace(data, sc.serveRefs)
			decoded = len(refs)
			return err
		})
		rep.values["decode.ns_per_ref"] = float64(time.Since(decStart).Nanoseconds()) / float64(max(decoded, 1))
		if err == nil && decoded != sc.serveRefs {
			err = fmt.Errorf("perfbench: replay trace decodes to %d refs, want %d", decoded, sc.serveRefs)
		}
		return err
	}); err != nil {
		return nil, err
	}
	handle := traceHandle(data)

	// Expected digests, resolved before anything is timed.
	expect, err := serveDigests(ctx, cfg, data, handle)
	if err != nil {
		return nil, err
	}

	var (
		srv        *server
		setupS     []float64
		setupAlloc []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < sc.serveSetups; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		runtime.GC()
		before := totalAlloc()
		start := time.Now()
		dir := filepath.Join(cfg.out, fmt.Sprintf("serve-data-%d-%d", os.Getpid(), i))
		err := rec.span(0, "job", "serve setup", func(root uint64) error {
			// Generating the replay trace belongs to set-up: it is most
			// of set-up's work, which keeps setup_s from being a few
			// milliseconds of server start-up noise.
			trace, err := replayTrace(cfg.seed, sc.serveRefs, rec, root, nil)
			if err != nil {
				return err
			}
			s, err := startServer(dir, rec, root)
			if err != nil {
				return err
			}
			srv = s
			return rec.span(root, "http.upload", "POST /v1/traces", func(uint64) error {
				h, err := upload(s.base, trace)
				if err == nil && h != handle {
					err = fmt.Errorf("perfbench: upload handle %s, want %s", h, handle)
				}
				return err
			})
		})
		setupS = append(setupS, time.Since(start).Seconds())
		setupAlloc = append(setupAlloc, float64(totalAlloc()-before))
		if err != nil {
			return nil, err
		}
	}
	rep.fs = fsKind(srv.dir)

	bench := newClient("bench", srv.base, benchJobs(cfg.seed, sc.serveRefs), expect)
	replay := newClient("replay", srv.base, replayJobs(handle, sc.serveRefs), expect)
	clients := []*client{bench, replay}
	defer func() {
		for _, c := range clients {
			c.http.CloseIdleConnections()
		}
	}()

	// Warm-up: each tenant serves warmJobs checked but untimed jobs.
	// With no job in flight, the live heap is then the server holding a
	// fixed number of finished jobs: retained_mb does not grow with
	// speed.
	warm := &phase{log: &opLog{}}
	runPhase(ctx, clients, nil, warm, func(n int) bool { return n < sc.warmJobs })
	rep.ops.attempted += warm.log.attempted
	rep.ops.failed += warm.log.failed
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	var (
		plainRate   float64
		tracedRates []float64
		timings     []jobTiming
		timedAlloc  float64
		jobs        int
	)
	if !cfg.trace {
		// One unbroken closed-loop phase: no window boundary leaves a
		// tenant idle while the other finishes. A slow machine can finish
		// too few jobs for a p90 in the measuring time; the phase then
		// goes on, for at most as long again.
		ph := &phase{log: &rep.ops}
		before := totalAlloc()
		start := time.Now()
		refs, end := runPhase(ctx, clients, nil, ph, func(int) bool {
			t := time.Since(start)
			return t < cfg.seconds || (ph.samples() < minTailSamples && t < 2*cfg.seconds)
		})
		plainRate = float64(refs) / end.Sub(start).Seconds()
		timedAlloc = float64(totalAlloc() - before)
		jobs = ph.finished
	} else {
		// The traced mode alternates untraced and traced windows, so the
		// tracing overhead is measured on the same server.
		var plainRates []float64
		winLen := cfg.seconds / time.Duration(sc.windows)
		for k := 0; k < sc.windows && ctx.Err() == nil; k++ {
			var wrec *recorder
			if k%2 == 1 {
				wrec = rec
			}
			ph := &phase{log: &opLog{}}
			start := time.Now()
			refs, end := runPhase(ctx, clients, wrec, ph, func(int) bool { return time.Since(start) < winLen })
			rep.ops.attempted += ph.log.attempted
			rep.ops.failed += ph.log.failed
			rate := float64(refs) / end.Sub(start).Seconds()
			if wrec == nil {
				plainRates = append(plainRates, rate)
				continue
			}
			tracedRates = append(tracedRates, rate)
			timings = append(timings, ph.timings...)
		}
		plainRate = median(plainRates)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	v := rep.values
	v["setup_s"] = median(setupS)
	v["cell_refs_per_s"] = plainRate
	v["alloc_mb"] = (median(setupAlloc) + timedAlloc/float64(max(jobs, 1))) / mib
	v["retained_mb"] = float64(heap.HeapAlloc) / mib
	if !cfg.trace {
		if err := rep.ops.latency(v); err != nil {
			return nil, err
		}
		rep.note("%d jobs served after %d warm-up jobs (op_p50_ms and op_p90_ms are over %d samples)",
			jobs, warm.finished, len(rep.ops.latMS))
	}
	if cfg.trace {
		decode := v["decode.ns_per_ref"]
		zeroLayers(v)
		v["decode.ns_per_ref"] = decode
		v["synth.refs"] = float64(synth.refs)
		v["synth.ns_per_ref"] = float64(synth.wall.Nanoseconds()) / float64(synth.refs)
		v["synth.alloc_b_per_ref"] = float64(synth.allocB) / float64(synth.refs)
		v["tracing.overhead_ratio"] = 1 - median(tracedRates)/plainRate
		replay := serveJob(serve.JobSpec{Trace: handle}, sc.serveRefs)
		if err := servePlanLayers(ctx, v, rec, data, replay, expect(replay)); err != nil {
			return nil, err
		}
		serveClientLayers(v, timings)
		if err := serveMetricLayers(v, srv.base, sc); err != nil {
			return nil, err
		}
		rep.spans = rec.snapshot()
	}
	return rep, nil
}

// serveDigests resolves the expected CSV digest of every job spec the
// tenants can submit: 30 bench specs (benchmark × kind) and the replay
// spec of this seed.
func serveDigests(ctx context.Context, cfg config, data []byte, handle string) (func(serve.JobSpec) string, error) {
	sc := cfg.scale
	want := map[string]string{}
	for _, p := range spec.SuiteParams() {
		for _, k := range serveKinds {
			js := serveJob(serve.JobSpec{Benches: []string{p.Name}, Kind: k}, sc.serveRefs)
			d, _, err := cfg.digests.expect(ctx, benchJobKey(js), func() (grid.Spec, error) { return benchJobGrid(js) })
			if err != nil {
				return nil, err
			}
			want[benchJobKey(js)] = d
		}
	}
	js := serveJob(serve.JobSpec{Trace: handle}, sc.serveRefs)
	d, _, err := cfg.digests.expect(ctx, replayKey(sc.serveRefs, cfg.seed), func() (grid.Spec, error) {
		return replayJobGrid(data, js), nil
	})
	if err != nil {
		return nil, err
	}
	want[handle] = d
	return func(js serve.JobSpec) string {
		if js.Trace != "" {
			return want[js.Trace]
		}
		return want[benchJobKey(js)]
	}, nil
}

// servePlanLayers measures the grid layer on a serve job's grid: plan
// build, partition and column share, then a per-cell run of the replay
// job by the benchmark itself, whose CSV rendering is timed and whose
// digest must match the one the served jobs were checked against.
func servePlanLayers(ctx context.Context, v map[string]float64, rec *recorder, data []byte, js serve.JobSpec, want string) error {
	gs := replayJobGrid(data, js)
	return rec.span(0, "job", "serve plan", func(root uint64) error {
		var (
			plan grid.Plan
			err  error
		)
		start := time.Now()
		if err := rec.span(root, "plan.build", "replay job", func(uint64) error {
			plan, err = gs.Build()
			return err
		}); err != nil {
			return err
		}
		v["plan.build_ms"] = ms(time.Since(start))
		all := make([]int, len(plan.Cells))
		for i := range all {
			all[i] = i
		}
		var groups []engine.Group
		start = time.Now()
		_ = rec.span(root, "plan.partition", "replay job", func(uint64) error {
			groups = plan.Partition(all, nil)
			return nil
		})
		v["plan.partition_ms"] = ms(time.Since(start))
		v["plan.column_share"] = float64(groupedCells(groups)) / float64(len(plan.Cells))
		v["column.units"] = float64(len(groups))
		d, csvMS, err := perCellRun(ctx, gs)
		if err != nil {
			return err
		}
		v["csv.write_ms"] = csvMS
		if d != want {
			return fmt.Errorf("perfbench: per-cell replay CSV digest %s, want %s", d, want)
		}
		return nil
	})
}

// serveClientLayers fills the client-side serve metrics: medians of each
// exchange of the traced jobs.
func serveClientLayers(v map[string]float64, ts []jobTiming) {
	pick := func(f func(jobTiming) time.Duration) float64 {
		return median(mapf(ts, func(t jobTiming) float64 { return ms(f(t)) }))
	}
	v["serve.submit_ms"] = pick(func(t jobTiming) time.Duration { return t.submit })
	v["serve.first_event_ms"] = pick(func(t jobTiming) time.Duration { return t.firstEvent })
	v["serve.stream_ms"] = pick(func(t jobTiming) time.Duration { return t.stream })
	v["serve.csv_ms"] = pick(func(t jobTiming) time.Duration { return t.csv })
}

// serveMetricLayers reads the server's own GET /metrics: job queue
// wait, cell wall per family, attempts, journal appends, rejections and
// report deltas.
func serveMetricLayers(v map[string]float64, base string, sc scale) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer drain(resp)
	prom, err := parseProm(resp.Body)
	if err != nil {
		return err
	}
	if n := prom["dynex_serve_job_queue_wait_seconds_count"]; n > 0 {
		v["serve.queue_wait_ms"] = prom["dynex_serve_job_queue_wait_seconds_sum"] / n * 1e3
	}
	v["serve.rejected"] = prom.sum("dynex_serve_jobs_rejected_total")
	done := prom["dynex_serve_jobs_done_total"]
	if done > 0 {
		v["serve.report_deltas"] = prom["dynex_serve_report_deltas_total"] / done
		v["checkpoint.appends"] = prom["dynex_serve_cells_completed_total"] / done
	}
	if cells := prom["dynex_cells_completed_total"]; cells > 0 {
		v["engine.attempts_per_cell"] = prom["dynex_cell_attempts_total"] / cells
	}
	// Every dm and de cell of a serve job is a member of a 4-size
	// column whose wall time each member reports; opt runs per cell.
	members := float64(len(serveSizes))
	refs := float64(sc.serveRefs)
	var busy float64
	for _, f := range []string{"dm", "de", "opt"} {
		sum := prom[`dynex_cell_wall_seconds_sum{family="`+f+`"}`]
		n := prom[`dynex_cell_wall_seconds_count{family="`+f+`"}`]
		if n == 0 {
			continue
		}
		if f == "opt" {
			v["cell.opt.ns_per_ref"] = sum * 1e9 / (n * refs)
			busy += sum
			continue
		}
		v["column."+f+".ns_per_member_ref"] = sum / members * 1e9 / (n * refs)
		busy += sum / members
	}
	if done > 0 {
		v["engine.busy_s"] = busy / done
	}
	return nil
}

// promSamples maps a Prometheus text sample's name and labels to its
// value.
type promSamples map[string]float64

func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("perfbench: /metrics line %q: %w", line, err)
		}
		out[line[:i]] = val
	}
	return out, sc.Err()
}

// sum adds every series of a metric family.
func (p promSamples) sum(name string) float64 {
	total := 0.0
	for k, val := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += val
		}
	}
	return total
}

// fsKind names the filesystem holding dir: tmpfs or disk.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic = 0x01021994
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}
