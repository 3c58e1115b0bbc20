package grid

import (
	"context"
	"errors"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
)

// Book receives a journaled run's checkpoint traffic;
// *telemetry.Collector implements it.
type Book interface {
	CheckpointHit(label string, saved time.Duration)
	CheckpointMiss()
	CheckpointWrite(label string, took time.Duration)
}

// errPending marks the result of a cell Restore found no record for, so
// WriteCSV withholds its row until Run replaces it.
var errPending = errors.New("grid: cell has not run")

// Restore looks every plan cell up in journal, once per fingerprint,
// and returns the result table (journaled Stats, Attempts and wall time
// where a record exists) and the plan indices still to run, ascending.
// book, when non-nil, gets a CheckpointHit or CheckpointMiss per cell.
// A nil journal restores and books nothing.
func (p Plan) Restore(journal *checkpoint.Journal, book Book) (results []engine.Result, pending []int) {
	results = make([]engine.Result, len(p.Cells))
	for i := range p.Cells {
		label := p.Cells[i].Label
		if journal != nil {
			if rec, ok := journal.Lookup(p.FPs[i]); ok {
				wall := time.Duration(rec.WallNS)
				results[i] = engine.Result{Label: label, Stats: rec.Stats, Attempts: rec.Attempts, Wall: wall}
				if book != nil {
					book.CheckpointHit(label, wall)
				}
				continue
			}
			if book != nil {
				book.CheckpointMiss()
			}
		}
		results[i] = engine.Result{Label: label, Err: errPending}
		pending = append(pending, i)
	}
	return results, pending
}

// RunOptions configures Plan.Run.
type RunOptions struct {
	// Engine tunes the engine run; its OnResult is replaced by OnCell.
	Engine engine.Options
	// Journal, when non-nil, gets one fsync'd record per cell that
	// finishes without error; Book, when non-nil, books each append.
	Journal *checkpoint.Journal
	Book    Book
	// Skip is Partition's skip; only a fault-injection directive sets it.
	Skip func(planIdx int) bool
	// OnCell, when non-nil, gets each finished cell's plan index and
	// result after its append, serialized like engine.Options.OnResult;
	// appendErr is nil unless an append failed.
	OnCell func(i int, r engine.Result, appendErr error)
}

// keptPerWorker is how many shared next-use passes a run keeps per
// engine worker. A worker takes single cells in plan order, where a
// source's size row holds one opt cell of every (line, policy) column,
// so a column's pass is kept across the rest of the row; two per worker
// carry a grid with two line sizes (the paper's 4 and 16 B) through its
// rows. A sharer that finds the limit reached computes a pass of its
// own.
const keptPerWorker = 2

// Run partitions the pending plan cells into column units, runs them
// with engine.RunGrouped, journals them, and merges their results into
// results (one entry per plan cell) at their plan indices. It returns
// the engine's error: ctx's error if the run was cancelled. The run
// keeps at most keptPerWorker shared next-use passes per worker and
// drops them all before it returns. A plan's runs must not overlap (one
// run's end would drop the other's passes; results stay exact).
func (p Plan) Run(ctx context.Context, results []engine.Result, pending []int, o RunOptions) error {
	workers := o.Engine.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	defer p.passes.Run(keptPerWorker * workers)()
	cells := make([]engine.Cell, len(pending))
	for k, i := range pending {
		cells[k] = p.Cells[i]
	}
	opts := o.Engine
	opts.OnResult = func(k int, r engine.Result) {
		i := pending[k]
		var appendErr error
		if r.Err == nil && o.Journal != nil {
			start := time.Now()
			appendErr = o.Journal.Append(checkpoint.Record{Fingerprint: p.FPs[i], Label: r.Label,
				Stats: r.Stats, Attempts: r.Attempts, WallNS: int64(r.Wall)})
			if appendErr == nil && o.Book != nil {
				o.Book.CheckpointWrite(r.Label, time.Since(start))
			}
		}
		if o.OnCell != nil {
			o.OnCell(i, r, appendErr)
		}
	}
	fresh, err := engine.RunGrouped(ctx, cells, p.Partition(pending, o.Skip), opts)
	for k := range fresh {
		results[pending[k]] = fresh[k]
	}
	return err
}
