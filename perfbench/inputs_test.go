package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// inputsDigest hashes everything a seed generates at smoke scale: both
// sweeps' streams, the first two cycles of the bench tenant's jobs, and
// the replay trace.
func inputsDigest(t *testing.T, seed int64) string {
	t.Helper()
	h := sha256.New()
	for _, w := range []string{"columns", "cells"} {
		gs, _, err := sweepGrid(w, seed, smokeScale, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range gs.Sources {
			refs, err := src.Stream()
			if err != nil {
				t.Fatal(err)
			}
			hashRefs(h.Write, refs)
		}
	}
	jobs := benchJobs(seed, smokeScale.serveRefs)
	for i := 0; i < 60; i++ {
		data, err := json.Marshal(jobs())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	data, err := replayTrace(seed, smokeScale.serveRefs, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashRefs(write func([]byte) (int, error), refs []trace.Ref) {
	var b [9]byte
	for _, r := range refs {
		binary.LittleEndian.PutUint64(b[:8], r.Addr)
		b[8] = byte(r.Kind)
		write(b[:])
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b := inputsDigest(t, 7), inputsDigest(t, 7)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if c := inputsDigest(t, 8); c == a {
		t.Error("different seeds generated identical inputs")
	}
}

func TestSeedZeroIsCanonicalSuite(t *testing.T) {
	for _, p := range spec.SuiteParams() {
		canon, _ := spec.ByName(p.Name)
		seeded, err := seededBench(p.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		var x, y [32]byte
		hx, hy := sha256.New(), sha256.New()
		hashRefs(hx.Write, canon.Mixed(5000))
		hashRefs(hy.Write, seeded.Mixed(5000))
		copy(x[:], hx.Sum(nil))
		copy(y[:], hy.Sum(nil))
		if x != y {
			t.Errorf("%s: seed 0 differs from the canonical suite program", p.Name)
		}
	}
}

func TestBenchJobsCoverEveryPairPerCycle(t *testing.T) {
	jobs := benchJobs(3, 1000)
	pairs := len(spec.SuiteParams()) * len(serveKinds)
	for cycle := 0; cycle < 2; cycle++ {
		seen := map[string]bool{}
		for i := 0; i < pairs; i++ {
			js := jobs()
			seen[js.Benches[0]+"/"+js.Kind] = true
		}
		if len(seen) != pairs {
			t.Errorf("cycle %d covered %d of %d (benchmark, kind) pairs", cycle, len(seen), pairs)
		}
	}
}
