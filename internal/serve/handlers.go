package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// maxTraceUpload bounds POST /v1/traces bodies — backpressure applies
// to uploads too; a multi-gigabyte trace is refused, not buffered.
const maxTraceUpload = 64 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs               submit a JobSpec            → 202 {id}
//	GET    /v1/jobs               list job statuses
//	GET    /v1/jobs/{id}          one job's status
//	DELETE /v1/jobs/{id}          cancel a job
//	GET    /v1/jobs/{id}/results  stream per-cell results (JSONL, or SSE
//	                              with Accept: text/event-stream), with
//	                              heartbeats while idle
//	GET    /v1/jobs/{id}/csv      final CSV (terminal jobs)
//	GET    /v1/jobs/{id}/report   the job's RunReport JSON
//	POST   /v1/traces             upload a trace file         → {trace}
//	GET    /healthz               process liveness
//	GET    /readyz                admission readiness (503 while
//	                              draining or backlogged)
//	GET    /metrics               Prometheus text exposition
//	GET    /debug/vars            Go runtime variables (expvar)
//	GET    /debug/pprof/          live profiling
//
// The tenant is the X-Tenant header; absent means "anon".
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	obs.RegisterDebug(mux, s.obsm.reg)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/csv", s.handleCSV)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		if s.q.full() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "overloaded"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return "anon"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		if ra := retryAfterHeader(he); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		writeJSON(w, he.code, map[string]string{"error": he.msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server is draining"})
		return
	}
	var js JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&js); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job spec: " + err.Error()})
		return
	}
	m, err := s.submit(tenantOf(r), js)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": m.ID, "state": m.State, "tenant": m.Tenant})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.listJobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, s.cancelJob(j))
}

// handleResults streams the job's event tail. JSONL by default; SSE when
// the client asks for text/event-stream. Heartbeats carry live progress
// while no cells are finishing, so a stalled client can distinguish "the
// job is slow" from "the connection is dead".
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	s.ensureTail(j)

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeEvent := func(ev Event) bool {
		line := marshalEvent(ev)
		var err error
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", line)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", line)
		}
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}

	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	from := 0
	for {
		evs, closed, wake := j.tail.snapshot(from)
		for _, ev := range evs {
			if !writeEvent(ev) {
				return
			}
		}
		from += len(evs)
		if closed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-heartbeat.C:
			done, total := j.progress()
			if !writeEvent(Event{Type: "heartbeat", Done: done, Total: total, State: j.state()}) {
				return
			}
		}
	}
}

// ensureTail lazily rebuilds the event tail of a terminal job loaded
// from disk (its cells live only in the journal after a restart).
func (s *Server) ensureTail(j *job) {
	j.mu.Lock()
	if j.tail != nil {
		j.mu.Unlock()
		return
	}
	j.tail = newTail()
	m := j.m
	j.mu.Unlock()

	t := j.tail
	if _, results, err := s.restoreJob(m); err == nil {
		replayRestored(t, results)
	}
	// A rebuilt tail replays the final report-delta frame too: the
	// stream's contract is that its last report-delta is the end-of-job
	// report, restart or not. Compacted so the bytes match what the live
	// run appended.
	if data, err := os.ReadFile(filepath.Join(s.st.jobDir(m.ID), "report.json")); err == nil {
		var compact bytes.Buffer
		if json.Compact(&compact, data) == nil {
			t.append(Event{Type: "report-delta", Final: true, Report: compact.Bytes()})
		}
	}
	t.finish(Event{Type: "done", State: m.State, Error: m.Error})
}

func (s *Server) handleCSV(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	if st := j.state(); st != StateDone {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, map[string]string{"error": "job is " + st + ", CSV is available once it is done"})
		return
	}
	csv, err := s.jobCSV(j)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(csv)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	data, err := os.ReadFile(filepath.Join(s.st.jobDir(j.manifest().ID), "report.json"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no report for this job (yet)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleTraceUpload stores a client trace content-addressed and returns
// the "trace:<digest>" handle a JobSpec can reference.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxTraceUpload+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(data) > maxTraceUpload {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "trace exceeds the upload cap"})
		return
	}
	if len(data) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "empty trace"})
		return
	}
	handle, err := s.st.putTrace(data)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"trace": handle})
}
