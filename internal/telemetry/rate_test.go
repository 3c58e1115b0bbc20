package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestSafeRate pins the clamp: zero, negative, and pathological windows
// yield 0, never +Inf or NaN.
func TestSafeRate(t *testing.T) {
	cases := []struct {
		n, secs, want float64
	}{
		{100, 2, 50},
		{0, 2, 0},
		{100, 0, 0},             // zero-duration window
		{100, -1, 0},            // clock went backwards
		{math.Inf(1), 1, 0},     // pathological numerator
		{math.NaN(), 1, 0},      // NaN propagates nowhere
		{1e308, 1e-308, 0},      // overflow to +Inf clamps
		{100, math.NaN(), 0},    // NaN window
		{100, math.Inf(1), 0},   // infinite window
		{1_000_000, 1e-9, 1e15}, // 1ns tick stays finite and passes through
	}
	for _, c := range cases {
		if got := safeRate(c.n, c.secs); got != c.want {
			t.Errorf("safeRate(%g, %g) = %g, want %g", c.n, c.secs, got, c.want)
		}
	}
}

// TestReportMarshalsOnZeroDurationWindow is the regression for the
// +Inf/NaN rate bug: a collector whose cells all complete inside a
// zero-length (or backwards) wall window must still produce a RunReport
// that marshals — encoding/json rejects non-finite floats, which used to
// fail the whole -report write.
func TestReportMarshalsOnZeroDurationWindow(t *testing.T) {
	c := NewCollector(1)
	_ = engine.Observe(c, 0, "cell", func() (uint64, error) { return 12345, nil })
	// Force a non-positive elapsed window: the monotonic clock cannot be
	// frozen from a test, so point start into the future.
	c.mu.Lock()
	c.start = time.Now().Add(time.Hour)
	c.mu.Unlock()

	r := c.Report()
	if r.RefsPerSec != 0 || r.CellsPerSec != 0 {
		t.Errorf("zero-duration rates = %g refs/s, %g cells/s, want 0, 0", r.RefsPerSec, r.CellsPerSec)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(string(data), bad) {
			t.Errorf("report JSON contains %q:\n%s", bad, data)
		}
	}

	s := c.Snapshot()
	if s.RefsPerSec != 0 || s.CellsPerSec != 0 {
		t.Errorf("zero-duration snapshot rates = %g refs/s, %g cells/s, want 0, 0", s.RefsPerSec, s.CellsPerSec)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot marshal: %v", err)
	}
}
