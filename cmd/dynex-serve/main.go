// Command dynex-serve runs the simulation service: a long-running HTTP
// server that accepts sweep-shaped simulation jobs, executes them on
// the resilient engine with per-tenant fair scheduling and bounded
// backpressure, streams per-cell results, and survives crashes — every
// job journals its cells, so a killed server resumes where it stopped
// with byte-identical final CSVs.
//
// Quickstart:
//
//	dynex-serve -addr :8080 -data /var/lib/dynex &
//	curl -s :8080/v1/jobs -X POST -H 'X-Tenant: alice' -d '{
//	  "benches": ["gcc"], "kind": "instr", "refs": 200000,
//	  "sizes": [4096, 8192], "lines": [4], "policies": ["dm", "de"]}'
//	curl -sN :8080/v1/jobs/j000000/results   # JSONL stream, heartbeats
//	curl -s  :8080/v1/jobs/j000000/csv       # final table
//
// SIGINT/SIGTERM drains gracefully: admission stops (readyz flips
// not-ready, new submissions get 503), running jobs get the grace
// window to finish, and stragglers are checkpointed for the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dynex-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dataDir      = flag.String("data", "dynex-serve-data", "data directory for durable job state")
		queueDepth   = flag.Int("queue-depth", 64, "max queued jobs before admissions get 429")
		maxActive    = flag.Int("max-active", 4, "max concurrently running jobs")
		tenantActive = flag.Int("tenant-active", 2, "max concurrently running jobs per tenant")
		workers      = flag.Int("workers", 1, "engine workers per running job")
		maxRefs      = flag.Int("max-refs", 10_000_000, "admission cap on refs per job source (0 = none)")
		maxCells     = flag.Int("max-cells", 4096, "admission cap on grid cells per job (0 = none)")
		retries      = flag.Int("retries", 3, "attempts per cell for transient failures")
		cellTimeout  = flag.Duration("cell-timeout", 0, "per-cell attempt deadline (0 = none)")
		drainGrace   = flag.Duration("drain-grace", 10*time.Second, "how long shutdown waits for running jobs before checkpointing them")
		heartbeat    = flag.Duration("heartbeat", 10*time.Second, "idle heartbeat interval on result streams")
		reportEvery  = flag.Duration("report-interval", 2*time.Second, "interval between report-delta frames on result streams")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := serve.New(serve.Config{
		DataDir:        *dataDir,
		QueueDepth:     *queueDepth,
		MaxActive:      *maxActive,
		TenantActive:   *tenantActive,
		Workers:        *workers,
		MaxRefs:        *maxRefs,
		MaxCells:       *maxCells,
		Retry:          engine.Retry{Attempts: *retries, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second},
		CellTimeout:    *cellTimeout,
		DrainGrace:     *drainGrace,
		Heartbeat:      *heartbeat,
		ReportInterval: *reportEvery,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dynex-serve: listening on %s (data: %s)\n", ln.Addr(), *dataDir)

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, srv.Metrics())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dynex-serve: debug server on http://%s/metrics (expvar at /debug/vars)\n", dbg)
	}

	// Run blocks until the signal arrives, then drains; the HTTP
	// listener stays up through the drain so health checks and result
	// streams see the shutdown instead of a dropped connection.
	select {
	case err := <-httpErr:
		return fmt.Errorf("http server: %w", err)
	case <-runDone(ctx, srv):
	}
	fmt.Fprintln(os.Stderr, "dynex-serve: drained, shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}

// runDone runs srv.Run in a goroutine and returns a channel closed when
// the drain completes.
func runDone(ctx context.Context, srv *serve.Server) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Run(ctx)
	}()
	return done
}
