package serve

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/trace"
)

// JobSpec is the client-facing description of one simulation job: a
// reference-stream source (suite benchmarks or one uploaded trace), a
// geometry grid, and a policy list — the same grid dynex-sweep runs,
// which is exactly why a job's CSV is byte-identical to a sweep's.
type JobSpec struct {
	// Benches names suite benchmarks ("gcc", "li", ...). Mutually
	// exclusive with Trace.
	Benches []string `json:"benches,omitempty"`
	// Trace references an uploaded trace by the "trace:<digest>" handle
	// POST /v1/traces returned.
	Trace string `json:"trace,omitempty"`
	// Kind selects the reference stream for Benches: instr, data, or
	// mixed. Uploaded traces carry their own kind and echo "trace".
	Kind string `json:"kind,omitempty"`
	// Refs bounds the stream length per source.
	Refs int `json:"refs"`
	// Sizes and Lines are the geometry grid in bytes.
	Sizes []uint64 `json:"sizes"`
	Lines []uint64 `json:"lines"`
	// Policies are registry policy specs, e.g. "de:sticky=2".
	Policies []string `json:"policies"`
	// TimeoutMS, when > 0, is the whole job's deadline: cells not
	// finished when it expires fail with the deadline error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Inject is a fault-injection directive with dynex-sweep's -inject
	// grammar and meaning (faultinject.Directive: "stream-fail=N" per
	// source, or "panic=SUBSTR"). Rejected unless the server was built
	// with Config.EnableFaults — it exists for the load suite, not for
	// clients.
	Inject string `json:"inject,omitempty"`
}

// validate checks the spec against the server's admission caps without
// synthesizing any stream — graceful degradation means an oversized or
// malformed job is refused at the door with a clear error, not accepted
// and half-run. Every cap is applied before any per-entry work, with an
// overflow-checked cell count, so refusing a spec costs time in its
// length, never in its grid's size.
func (js JobSpec) validate(cfg Config) error {
	if len(js.Benches) == 0 && js.Trace == "" {
		return fmt.Errorf("job needs benches or a trace")
	}
	if len(js.Benches) > 0 && js.Trace != "" {
		return fmt.Errorf("benches and trace are mutually exclusive")
	}
	if js.Trace != "" && !strings.HasPrefix(js.Trace, "trace:") {
		return fmt.Errorf("trace handle %q must look like trace:<digest>", js.Trace)
	}
	if js.Refs <= 0 {
		return fmt.Errorf("refs must be positive")
	}
	if cfg.MaxRefs > 0 && js.Refs > cfg.MaxRefs {
		return fmt.Errorf("refs %d exceeds the server cap %d", js.Refs, cfg.MaxRefs)
	}
	if len(js.Sizes) == 0 || len(js.Lines) == 0 || len(js.Policies) == 0 {
		return fmt.Errorf("empty grid: sizes, lines, and policies must be non-empty")
	}
	cells, err := js.cells()
	if err != nil {
		return err
	}
	if cfg.MaxCells > 0 && cells > cfg.MaxCells {
		return fmt.Errorf("grid has %d cells, server cap is %d", cells, cfg.MaxCells)
	}
	if js.Inject != "" && !cfg.EnableFaults {
		return fmt.Errorf("fault injection is disabled on this server")
	}
	if _, err := faultinject.ParseDirective(js.Inject); err != nil {
		return err
	}
	if js.Trace == "" {
		if err := grid.CheckBenches(js.Benches, js.kind()); err != nil {
			return err
		}
	}
	// Building the grid over one stand-in source validates geometries
	// and policy specs without building a program or a stream.
	_, err = grid.Spec{Sources: make([]grid.Source, 1),
		Sizes: js.Sizes, Lines: js.Lines, Policies: js.Policies}.Build()
	return err
}

// cells is the job's grid size, sources × sizes × lines × policies,
// refused when the product overflows an int.
func (js JobSpec) cells() (int, error) {
	nsrc := len(js.Benches)
	if js.Trace != "" {
		nsrc = 1
	}
	cells := 1
	for _, n := range []int{nsrc, len(js.Sizes), len(js.Lines), len(js.Policies)} {
		if n > 0 && cells > math.MaxInt/n {
			return 0, fmt.Errorf("grid of %d×%d×%d×%d cells is too large",
				nsrc, len(js.Sizes), len(js.Lines), len(js.Policies))
		}
		cells *= n
	}
	return cells, nil
}

// kind is the job's stream kind for bench sources; instr by default.
func (js JobSpec) kind() string {
	if js.Kind == "" {
		return "instr"
	}
	return js.Kind
}

// gridSpec lowers the job to the shared grid layout. store provides
// uploaded-trace bytes; it may be nil for validation-only builds (the
// trace source then yields an error stream that is never called).
func (js JobSpec) gridSpec(store *store) (grid.Spec, error) {
	kind := js.kind()
	var sources []grid.Source
	if js.Trace != "" {
		digest := strings.TrimPrefix(js.Trace, "trace:")
		name := js.Trace
		refs := js.Refs
		sources = []grid.Source{grid.NewSource(name, func() ([]trace.Ref, error) {
			if store == nil {
				return nil, fmt.Errorf("serve: no trace store")
			}
			data, err := store.readTrace(digest)
			if err != nil {
				return nil, err
			}
			fr, err := trace.NewFileReader(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return trace.Collect(fr, refs)
		})}
		// Uploaded traces carry their own access kinds; the CSV echoes
		// the literal "trace" so grid fingerprints stay well-defined.
		kind = "trace"
	} else {
		var err error
		if sources, err = grid.BenchSources(js.Benches, kind, js.Refs); err != nil {
			return grid.Spec{}, err
		}
	}
	return grid.Spec{
		Sources: sources, Kind: kind, Refs: js.Refs,
		Sizes: js.Sizes, Lines: js.Lines, Policies: js.Policies,
	}, nil
}

// Job states. A job is durable from the moment POST /v1/jobs returns its
// ID: queued and running jobs survive a crash (they re-enqueue on
// restart and resume from their cell journal); terminal states are
// final.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Manifest is the durable job record (jobs/<id>/manifest.json),
// rewritten atomically on every state transition.
type Manifest struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	Seq    uint64  `json:"seq"` // admission order, for recovery re-enqueue
	Spec   JobSpec `json:"spec"`
	State  string  `json:"state"`
	// Error carries the job-level failure for StateFailed.
	Error string `json:"error,omitempty"`
	// FailedCells counts cells whose rows were withheld from the CSV.
	FailedCells int `json:"failed_cells,omitempty"`
}

// job is the in-memory half of a Manifest: live progress, the event
// tail, and cancellation.
type job struct {
	mu      sync.Mutex
	m       Manifest
	tail    *tail
	cancel  func(error) // cancels the job's run context with a cause
	done    int         // cells finished (journaled or failed)
	total   int
	resumed int // cells restored from the journal on this run
	// enqueuedAt is when the job entered the queue (admission or crash
	// recovery) — the start point of the queue-wait histogram. Immutable
	// after construction, so readable without the lock.
	enqueuedAt time.Time
}

func (j *job) manifest() Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m
}

func (j *job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m.State
}

func (j *job) progress() (done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done, j.total
}

// terminal reports whether the job reached a final state.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Status is the API shape of GET /v1/jobs/{id}.
type Status struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	State       string `json:"state"`
	Done        int    `json:"done"`
	Total       int    `json:"total"`
	Resumed     int    `json:"resumed_cells,omitempty"`
	FailedCells int    `json:"failed_cells,omitempty"`
	Error       string `json:"error,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.m.ID, Tenant: j.m.Tenant, State: j.m.State,
		Done: j.done, Total: j.total, Resumed: j.resumed,
		FailedCells: j.m.FailedCells, Error: j.m.Error,
	}
}
