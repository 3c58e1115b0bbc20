package telemetry

import (
	"fmt"

	"repro/internal/obs"
)

// SpansOf reconstructs the trace tree from an event log: the run span
// (run_start → run_summary), one cell span per cell_start/cell_finish
// pair, attempt spans under their cell, and checkpoint spans under the
// run. Events without a span ID (old traces, custom Annotate events)
// are skipped. A log torn mid-run reconstructs fine: spans still open
// at the last event are closed there. A run_summary with no run_start
// (only a hand-made log has one) closes nothing, so such a log has no
// run span to root a tree.
func SpansOf(events []Event) ([]obs.Span, error) {
	var spans []obs.Span
	open := map[uint64]int{} // span ID -> index into spans, awaiting its close event
	var last float64
	for _, ev := range events {
		if ev.AtMS > last {
			last = ev.AtMS
		}
		if ev.Span == 0 {
			continue
		}
		switch ev.T {
		case EventRunStart:
			if _, dup := open[ev.Span]; dup {
				return nil, fmt.Errorf("telemetry: span %d started twice", ev.Span)
			}
			open[ev.Span] = len(spans)
			spans = append(spans, obs.Span{ID: ev.Span, Kind: obs.KindJob, Name: ev.Note,
				StartMS: ev.AtMS, DurMS: -1})
		case EventRunSummary, EventCellFinish:
			if i, ok := open[ev.Span]; ok {
				spans[i].DurMS = ev.AtMS - spans[i].StartMS
				delete(open, ev.Span)
			}
		case EventCellStart:
			if _, dup := open[ev.Span]; dup {
				return nil, fmt.Errorf("telemetry: span %d started twice", ev.Span)
			}
			open[ev.Span] = len(spans)
			spans = append(spans, obs.Span{ID: ev.Span, Parent: ev.Parent, Kind: obs.KindCell,
				Name: ev.Cell, StartMS: ev.AtMS, DurMS: -1})
		case EventCellAttempt:
			spans = append(spans, obs.Span{ID: ev.Span, Parent: ev.Parent, Kind: obs.KindAttempt,
				Name:    fmt.Sprintf("%s attempt %d", ev.Cell, ev.Attempt),
				StartMS: ev.AtMS - ev.WallMS, DurMS: ev.WallMS})
		case EventCheckpointWrite:
			spans = append(spans, obs.Span{ID: ev.Span, Parent: ev.Parent, Kind: obs.KindCheckpoint,
				Name: "checkpoint " + ev.Cell, StartMS: ev.AtMS - ev.WallMS, DurMS: ev.WallMS})
		case EventCheckpointResume:
			spans = append(spans, obs.Span{ID: ev.Span, Parent: ev.Parent, Kind: obs.KindCheckpoint,
				Name: "resume " + ev.Cell, StartMS: ev.AtMS, DurMS: 0})
		}
	}
	// Torn run: close whatever never saw its finish event at the last
	// timestamp, so duration is the observed lifetime, never negative.
	for _, i := range open {
		spans[i].DurMS = last - spans[i].StartMS
	}
	return spans, nil
}
