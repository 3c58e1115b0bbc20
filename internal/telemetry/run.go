package telemetry

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
)

// Sinks names where one CLI run's telemetry goes; an empty field leaves
// its sink off.
type Sinks struct {
	// Report is the path the RunReport JSON is written to when the run
	// ends (-report).
	Report string
	// TraceEvents is the path of the JSONL event log written while the
	// run executes (-trace-events).
	TraceEvents string
	// DebugAddr is the address /metrics, /debug/vars and /debug/pprof
	// are served on for the rest of the process (-debug-addr).
	DebugAddr string
}

// Open is the run harness of the batch CLIs (dynex, dynex-sweep and
// dynex-experiments). It creates the run's collector, expecting total
// cells; with a debug address it routes the collector into the
// process-wide instruments on obs.Default, labelled by the policy
// families, and serves the debug surface there; it opens and attaches
// the event log and starts the run span. cmd is the command line: the
// run span's note and the report's command, and its first word
// prefixes what Open prints on stderr.
//
// A sink that cannot be opened is an error before the run starts. The
// returned function ends the run: it emits run_summary, flushes and
// closes the event log, then writes the report. A failure there is
// printed on stderr and never fails the run.
func Open(cmd string, total int, sinks Sinks, families []string, stderr io.Writer) (*Collector, func(), error) {
	name, _, _ := strings.Cut(cmd, " ")
	col := NewCollector(total)
	if sinks.DebugAddr != "" {
		col.SetInstruments(defaultInstruments(families))
		addr, err := obs.ServeDebug(sinks.DebugAddr, obs.Default)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "%s: debug server on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", name, addr)
	}
	var tw *TraceWriter
	if sinks.TraceEvents != "" {
		var err error
		if tw, err = openTrace(sinks.TraceEvents); err != nil {
			return nil, nil, err
		}
		col.SetTrace(tw)
	}
	col.Start(cmd)
	finish := func() {
		col.Finish()
		if tw != nil {
			if err := tw.Close(); err != nil {
				fmt.Fprintf(stderr, "%s: trace-events: %v\n", name, err)
			}
		}
		if sinks.Report != "" {
			if err := col.writeReport(sinks.Report, cmd); err != nil {
				fmt.Fprintf(stderr, "%s: report: %v\n", name, err)
			}
		}
	}
	return col, finish, nil
}
