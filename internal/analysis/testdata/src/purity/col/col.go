// Package col holds collector-purity fixture implementations.
package col

import (
	"os"
	"sync"
	"time"

	"fix/internal/engine"
	"fix/internal/grid"
)

// Bad blocks or perturbs the run in every method: three findings.
type Bad struct{}

// CellStarted sleeps: finding.
func (Bad) CellStarted(ev engine.CellStart) {
	time.Sleep(time.Millisecond)
}

// CellAttempted panics: finding.
func (Bad) CellAttempted(ev engine.CellAttempt) {
	panic("no")
}

// CellFinished exits: finding.
func (Bad) CellFinished(ev engine.CellFinish) {
	os.Exit(1)
}

// Good is passive except for one blocking send.
type Good struct {
	mu sync.Mutex
	n  int
	ch chan int
}

// CellStarted locks, counts, and hands slow work to a goroutine: clean.
func (g *Good) CellStarted(ev engine.CellStart) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	go func() {
		time.Sleep(time.Millisecond)
	}()
}

// CellAttempted uses a non-blocking send: clean.
func (g *Good) CellAttempted(ev engine.CellAttempt) {
	select {
	case g.ch <- ev.Index:
	default:
	}
}

// CellFinished sends without a default: finding.
func (g *Good) CellFinished(ev engine.CellFinish) {
	g.ch <- ev.Index
}

// half shares a method name but does not implement Collector: clean.
type half struct{}

func (half) CellStarted(ev engine.CellStart) {
	time.Sleep(time.Millisecond)
}

// Hooks wires impure OnResult/Progress callbacks: three findings.
func Hooks() engine.Options {
	opts := engine.Options{
		OnResult: func(i int, r engine.Result) {
			panic("hook")
		},
		Progress: report,
	}
	opts.OnResult = func(i int, r engine.Result) {
		time.Sleep(time.Second)
	}
	return opts
}

// report is referenced by name from an Options literal: finding inside.
func report(done, total int) {
	os.Exit(done)
}

var _ = half{}

// GridHooks wires an impure grid run hook: one finding.
func GridHooks() grid.RunOptions {
	return grid.RunOptions{
		OnCell: func(i int, r engine.Result, appendErr error) {
			os.Exit(i)
		},
	}
}
