package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenIDs are the experiments pinned byte-for-byte by the golden
// file, all 18 of them, rendered in this order on one Workloads. The
// first six are the single-level studies touched by the policy-registry
// refactor, generated before it, so a clean diff proves the spec-built
// simulators reproduce the hand-built ones. The other twelve were
// generated before the shared sweeps were memoized per Workloads, so a
// clean diff proves that every view of a sweep computed once (Figures
// 5, 8 and 9, Amat and Sensitivity's canonical curve) renders what
// recomputing it did.
var goldenIDs = []string{"sec3", "fig03", "fig11", "fig13", "ablations", "writes",
	"fig04", "fig05", "fig07", "fig08", "fig09", "fig12", "fig14", "fig15",
	"assoc", "amat", "static", "sensitivity"}

// TestGoldenSmall pins the rendered output of the golden experiments at
// a reduced reference count against testdata/golden_small.txt.
func TestGoldenSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run is slow")
	}
	want, err := os.ReadFile("testdata/golden_small.txt")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkloads(Config{Refs: 60_000})
	var b strings.Builder
	for _, id := range goldenIDs {
		r, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", id, r.Run(w).String())
	}
	if got := b.String(); got != string(want) {
		t.Errorf("golden output drifted from testdata/golden_small.txt\n"+
			"got %d bytes, want %d; first divergence at byte %d",
			len(got), len(want), firstDiff(got, string(want)))
		t.Logf("got:\n%s", got)
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
