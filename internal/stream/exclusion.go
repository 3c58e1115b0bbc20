package stream

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

// Exclusion is the paper's third §6 implementation of dynamic exclusion
// with multi-instruction lines: "leave excluded instructions in the
// stream buffer". A current-line register serves sequential fetches
// within the line (so the FSM sees one event per line run, and excluded
// lines keep their spatial locality), and a sequential prefetch buffer
// covers the next lines, hiding the compulsory misses of straight-line
// code the way Jouppi's design does. The FSM still decides, line by
// line, what is stored in the cache proper.
type Exclusion struct {
	de        *core.Cache
	buf       *Buffer
	lineShift uint

	cur      uint64
	curValid bool

	stats cache.Stats

	lineHits   uint64 // fetches served by the current-line register
	streamHits uint64 // line fetches covered by the prefetch buffer
}

// NewExclusion returns a dynamic exclusion cache whose excluded lines are
// served by a stream buffer of the given depth. cfg.UseLastLine is
// ignored (the current-line register replaces it).
func NewExclusion(cfg core.Config, depth int) (*Exclusion, error) {
	cfg.UseLastLine = false
	de, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	buf, err := NewBuffer(depth)
	if err != nil {
		return nil, err
	}
	lineShift, _ := cache.IndexShifts(de.Geometry())
	return &Exclusion{de: de, buf: buf, lineShift: lineShift}, nil
}

// MustExclusion is NewExclusion but panics on error.
func MustExclusion(cfg core.Config, depth int) *Exclusion {
	e, err := NewExclusion(cfg, depth)
	if err != nil {
		panic(fmt.Sprintf("stream: %v", err))
	}
	return e
}

// Access runs one reference.
//
//dynexcheck:hot
func (e *Exclusion) Access(addr uint64) cache.Result {
	block := addr >> e.lineShift

	// Sequential fetches within the current line never leave the line
	// register.
	if e.curValid && e.cur == block {
		e.stats.Record(cache.Hit, false)
		e.lineHits++
		return cache.Hit
	}
	e.cur = block
	e.curValid = true

	// A new line event: the FSM decides placement in the cache proper.
	res := e.de.Access(addr)
	if res == cache.Hit {
		e.stats.Record(cache.Hit, false)
		return cache.Hit
	}

	// The line is not in the cache. If the prefetcher already has it at
	// the buffer head, the fetch is covered: no next-level miss.
	if e.buf.HeadHit(block) {
		e.streamHits++
		e.stats.Record(cache.Hit, false)
		return cache.Hit
	}

	// A real miss: restart the prefetch stream behind it.
	e.buf.Restart(block)
	e.stats.Record(res, false)
	return res
}

// Stats returns the composite counters (misses are fetches that reached
// the next memory level).
func (e *Exclusion) Stats() cache.Stats { return e.stats }

// Extras returns the §6 helper-structure counters in the uniform
// cache.Counter shape.
func (e *Exclusion) Extras() []cache.Counter {
	return []cache.Counter{
		{Name: "line_hits", Value: e.lineHits},
		{Name: "stream_hits", Value: e.streamHits},
	}
}

// Inner exposes the wrapped dynamic exclusion cache (for FSM state
// inspection).
func (e *Exclusion) Inner() *core.Cache { return e.de }

// Geometry returns the cache shape.
func (e *Exclusion) Geometry() cache.Geometry { return e.de.Geometry() }
