package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ckpt.jsonl")
}

// TestRoundTrip checks records survive a close/reopen cycle.
func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Fingerprint: "aa", Label: "gcc/1024/4/dm", Stats: cache.Stats{Accesses: 100, Misses: 7}, Attempts: 1, WallNS: 12345},
		{Fingerprint: "bb", Label: "gcc/1024/4/de", Stats: cache.Stats{Accesses: 100, Misses: 5}, Attempts: 2},
		{Fingerprint: "cc", Label: "fig03", Payload: "rendered table\nwith lines"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", j2.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := j2.Lookup(want.Fingerprint)
		if !ok || got != want {
			t.Errorf("Lookup(%s) = %+v, %v; want %+v", want.Fingerprint, got, ok, want)
		}
	}
	if _, ok := j2.Lookup("nope"); ok {
		t.Error("Lookup of unknown fingerprint succeeded")
	}
}

// TestTornTail checks a crash mid-write (partial final line) loses only
// that record: the good prefix loads, the tail is truncated away, and
// appends continue cleanly at a record boundary.
func TestTornTail(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Fingerprint: "aa", Label: "one"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Fingerprint: "bb", Label: "two"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: a record that never got its newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"cc","label":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("Len after torn tail = %d, want 2", j2.Len())
	}
	if _, ok := j2.Lookup("cc"); ok {
		t.Error("torn record resurrected")
	}
	// The tail must be gone from disk and appends must land cleanly.
	if err := j2.Append(Record{Fingerprint: "dd", Label: "four"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "torn") {
		t.Errorf("torn tail still on disk:\n%s", data)
	}
	j3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	for _, fp := range []string{"aa", "bb", "dd"} {
		if _, ok := j3.Lookup(fp); !ok {
			t.Errorf("record %s lost after torn-tail recovery", fp)
		}
	}
}

// TestCorruptLine checks a non-JSON line poisons only itself and what
// follows, like a torn tail.
func TestCorruptLine(t *testing.T) {
	path := tmpJournal(t)
	good := `{"fp":"aa","label":"one"}` + "\n"
	bad := "!!! not json !!!\n" + `{"fp":"bb","label":"after"}` + "\n"
	if err := os.WriteFile(path, []byte(good+bad), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (good prefix only)", j.Len())
	}
	if _, ok := j.Lookup("bb"); ok {
		t.Error("record after corruption should not load (prefix semantics)")
	}
}

// TestDuplicateLatestWins checks re-journaled cells (at-least-once) keep
// the newest record.
func TestDuplicateLatestWins(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Fingerprint: "aa", Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Fingerprint: "aa", Attempts: 3}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d, want 1", j.Len())
	}
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec, _ := j2.Lookup("aa"); rec.Attempts != 3 {
		t.Errorf("latest record lost: %+v", rec)
	}
}

// TestSyncEvery checks every appended record is in the file before
// Close: Append makes each record durable before it returns.
func TestSyncEvery(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"aa", "bb", "cc"} {
		if err := j.Append(Record{Fingerprint: fp}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 3 {
		t.Errorf("flushed %d lines, want 3", got)
	}
	j.Close()
}

// TestAppendValidation checks fingerprints are mandatory.
func TestAppendValidation(t *testing.T) {
	j, err := Open(tmpJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Label: "anonymous"}); err == nil {
		t.Error("Append without fingerprint succeeded")
	}
}

// TestAppendFailureNotRecorded checks a record whose append fails is
// neither looked up nor counted: here the file is closed, so the flush
// fails and nothing reaches the disk.
func TestAppendFailureNotRecorded(t *testing.T) {
	j, err := Open(tmpJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Fingerprint: "aa"}); err == nil {
		t.Fatal("Append to a closed journal succeeded")
	}
	if rec, ok := j.Lookup("aa"); ok {
		t.Errorf("Lookup found the failed append: %+v", rec)
	}
	if n := j.Len(); n != 0 {
		t.Errorf("Len = %d after a failed append, want 0", n)
	}
}

// TestFingerprint checks determinism, sensitivity, and the length-prefix
// defense against concatenation collisions.
func TestFingerprint(t *testing.T) {
	if Fingerprint("a", "b") != Fingerprint("a", "b") {
		t.Error("Fingerprint not deterministic")
	}
	if Fingerprint("a", "b") == Fingerprint("a", "c") {
		t.Error("Fingerprint insensitive to parts")
	}
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("Fingerprint collides across part boundaries")
	}
	if Fingerprint() == Fingerprint("") {
		t.Error("Fingerprint() == Fingerprint(\"\")")
	}
	if len(Fingerprint("x")) != 32 {
		t.Errorf("Fingerprint length = %d, want 32 hex chars", len(Fingerprint("x")))
	}
}
