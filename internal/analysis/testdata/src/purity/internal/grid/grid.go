// Package grid mirrors the real grid's run hook for the
// collector-purity fixture.
package grid

import "fix/internal/engine"

// RunOptions tunes a journaled run.
type RunOptions struct {
	Engine engine.Options
	OnCell func(i int, r engine.Result, appendErr error)
}
