// Package grid builds (stream × size × line × policy) simulation grids:
// the cell layout, checkpoint fingerprints, and CSV rendering shared by
// cmd/dynex-sweep and the dynex-serve job runner.
//
// Both consumers must agree byte-for-byte: a serve job's CSV has to be
// identical to a direct dynex-sweep run of the same cells, and a job
// journal has to be a valid sweep checkpoint (and vice versa), so the
// grid order, the label format, the fingerprint composition, and the CSV
// row rendering live here exactly once. The fingerprint scheme is the
// historical "dynex-sweep/v1" composition, pinned by
// cmd/dynex-sweep/testdata/seed_journal.jsonl — journals written before
// this package existed still resume.
package grid

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Source is one reference stream of a grid: a synthetic benchmark or an
// uploaded trace. Stream is called on engine workers, so it must be safe
// for concurrent materialization; NewSource wraps a loader in a
// sync.Once for exactly that.
type Source struct {
	// Name labels the source in cell labels and the CSV benchmark
	// column ("gcc", or "trace:<digest>" for uploads).
	Name string
	// Stream materializes the source's references, shared by every cell
	// of the source.
	Stream func() ([]trace.Ref, error)
}

// NewSource wraps load in a sync.Once so the stream materializes at most
// once — on whichever engine worker reaches it first — and every cell of
// the source shares the slice.
func NewSource(name string, load func() ([]trace.Ref, error)) Source {
	var (
		once sync.Once
		refs []trace.Ref
		err  error
	)
	return Source{Name: name, Stream: func() ([]trace.Ref, error) {
		once.Do(func() { refs, err = load() })
		return refs, err
	}}
}

// CheckBenches reports the error BenchSources would for these names and
// stream kind, without building any benchmark program — cheap enough to
// run on untrusted job specs before admission.
func CheckBenches(names []string, kind string) error {
	switch kind {
	case "instr", "data", "mixed":
	default:
		return fmt.Errorf("grid: unknown kind %q", kind)
	}
	known := make(map[string]bool)
	for _, p := range spec.SuiteParams() {
		known[p.Name] = true
	}
	for _, name := range names {
		if !known[name] {
			return fmt.Errorf("grid: unknown benchmark %q", name)
		}
	}
	return nil
}

// BenchSources resolves suite benchmark names into grid sources for the
// given stream kind and length. An unknown name or kind is an error
// before any stream is synthesized.
func BenchSources(names []string, kind string, refs int) ([]Source, error) {
	if err := CheckBenches(names, kind); err != nil {
		return nil, err
	}
	sources := make([]Source, len(names))
	for i, name := range names {
		b, _ := spec.ByName(name)
		sources[i] = NewSource(b.Name, func() ([]trace.Ref, error) {
			switch kind {
			case "instr":
				return b.Instr(refs), nil
			case "data":
				return b.Data(refs), nil
			default:
				return b.Mixed(refs), nil
			}
		})
	}
	return sources, nil
}

// Spec declares a simulation grid. Kind and Refs identify the streams in
// checkpoint fingerprints (and Kind is echoed in the CSV), so two grids
// over the same sources with different lengths never share journal
// records.
type Spec struct {
	Sources  []Source
	Kind     string
	Refs     int
	Sizes    []uint64
	Lines    []uint64
	Policies []string // raw policy spec strings; labels and fingerprint parts
}

// NumCells returns the grid's cell count.
func (s Spec) NumCells() int {
	return len(s.Sources) * len(s.Sizes) * len(s.Lines) * len(s.Policies)
}

// Plan is a validated grid: engine cells in deterministic grid order
// (source-major, then size, line, policy — the serial loop nest
// dynex-sweep has always used) and the matching checkpoint fingerprints.
type Plan struct {
	Spec  Spec
	Cells []engine.Cell
	// FPs[i] is Cells[i]'s checkpoint fingerprint.
	FPs []string
}

// Build validates the whole grid — every policy spec parses, every
// geometry validates — before any simulation could start, and returns
// the cell plan. Fingerprints use the historical "dynex-sweep/v1"
// composition: (source, kind, refs, size, line, raw policy text).
func (s Spec) Build() (Plan, error) {
	if len(s.Sources) == 0 {
		return Plan{}, fmt.Errorf("grid: no sources")
	}
	if len(s.Sizes) == 0 || len(s.Lines) == 0 {
		return Plan{}, fmt.Errorf("grid: empty size or line list")
	}
	if len(s.Policies) == 0 {
		return Plan{}, fmt.Errorf("grid: empty policy list")
	}
	polSpecs := make([]policy.Spec, len(s.Policies))
	for i, pol := range s.Policies {
		sp, err := policy.Parse(pol)
		if err != nil {
			return Plan{}, fmt.Errorf("grid: %w", err)
		}
		polSpecs[i] = sp
	}
	p := Plan{
		Spec:  s,
		Cells: make([]engine.Cell, 0, s.NumCells()),
		FPs:   make([]string, 0, s.NumCells()),
	}
	for _, src := range s.Sources {
		for _, size := range s.Sizes {
			for _, line := range s.Lines {
				geom := cache.DM(size, line)
				if err := geom.Validate(); err != nil {
					return Plan{}, err
				}
				for pi, pol := range s.Policies {
					cell := polSpecs[pi].Cell()
					cell.Geometry = geom
					cell.Label = fmt.Sprintf("%s/%d/%d/%s", src.Name, size, line, pol)
					cell.Stream = src.Stream
					p.Cells = append(p.Cells, cell)
					p.FPs = append(p.FPs, checkpoint.Fingerprint(
						"dynex-sweep/v1", src.Name, s.Kind, strconv.Itoa(s.Refs),
						strconv.FormatUint(size, 10), strconv.FormatUint(line, 10), pol))
				}
			}
		}
	}
	return p, nil
}

// Header is the CSV header row shared by every grid consumer.
func Header() []string {
	return []string{"benchmark", "kind", "size", "line", "policy", "miss_rate", "misses", "accesses"}
}

// WriteCSV renders the result table as CSV in grid order — results[i]
// must describe Cells[i], which engine.Run guarantees. Rows for failed
// cells are withheld from the CSV and returned instead, matching
// dynex-sweep's partial-failure semantics; the caller reports them on
// its own diagnostic channel.
func (p Plan) WriteCSV(w io.Writer, results []engine.Result) ([]engine.Result, error) {
	if len(results) != len(p.Cells) {
		return nil, fmt.Errorf("grid: %d results for %d cells", len(results), len(p.Cells))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return nil, err
	}
	var failed []engine.Result
	i := 0
	for _, src := range p.Spec.Sources {
		for _, size := range p.Spec.Sizes {
			for _, line := range p.Spec.Lines {
				for _, pol := range p.Spec.Policies {
					res := results[i]
					i++
					if res.Err != nil {
						failed = append(failed, res)
						continue
					}
					rec := []string{
						src.Name, p.Spec.Kind,
						strconv.FormatUint(size, 10),
						strconv.FormatUint(line, 10),
						pol,
						strconv.FormatFloat(res.Stats.MissRate(), 'f', 6, 64),
						strconv.FormatUint(res.Stats.Misses, 10),
						strconv.FormatUint(res.Stats.Accesses, 10),
					}
					if err := cw.Write(rec); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	cw.Flush()
	return failed, cw.Error()
}
