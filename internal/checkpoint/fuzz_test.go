package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
)

// FuzzJournalOpen opens arbitrary bytes as a journal. Open must not
// panic or fail; it must keep exactly the complete, valid records before
// the first bad line (the latest per fingerprint) and truncate the file
// after them; and a record appended after Open must be found, beside
// every kept record, once the journal is reopened.
func FuzzJournalOpen(f *testing.F) {
	line := func(r Record) string {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	a := line(Record{Fingerprint: "aa", Label: "gcc/1024/4/dm", Stats: cache.Stats{Accesses: 9, Misses: 2}, Attempts: 1, WallNS: 77})
	b := line(Record{Fingerprint: "bb", Payload: "fig03"})
	f.Add([]byte(""))
	f.Add([]byte(a + b))
	f.Add([]byte(a + b[:len(b)/2]))               // torn tail
	f.Add([]byte(a + "{not json}\n" + b))         // corrupt line mid-file
	f.Add([]byte(a + `{"label":"no fp"}` + "\n")) // record without a fingerprint
	f.Add([]byte(a + a + b))                      // duplicate fingerprint
	f.Add([]byte("null\n\n" + a))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle: complete lines, in order, up to the first one that
		// is not a record with a fingerprint.
		want := map[string]Record{}
		var keep int
		for _, l := range bytes.SplitAfter(data, []byte("\n")) {
			if !bytes.HasSuffix(l, []byte("\n")) {
				break
			}
			var rec Record
			if json.Unmarshal(l, &rec) != nil || rec.Fingerprint == "" {
				break
			}
			want[rec.Fingerprint] = rec
			keep += len(l)
		}

		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		check := func(j *Journal, want map[string]Record) {
			t.Helper()
			if j.Len() != len(want) {
				t.Errorf("journal holds %d records, want %d", j.Len(), len(want))
			}
			for fp, w := range want {
				if got, ok := j.Lookup(fp); !ok || got != w {
					t.Errorf("Lookup(%q) = %+v, %v; want %+v", fp, got, ok, w)
				}
			}
		}
		check(j, want)
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(keep) {
			t.Errorf("file is %v bytes after Open (err %v), want the %d-byte valid prefix", fi.Size(), err, keep)
		}

		added := Record{Fingerprint: "appended-after-open", Label: "x", Stats: cache.Stats{Accesses: 3, Hits: 1, Misses: 2}, Attempts: 2}
		if err := j.Append(added); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		want[added.Fingerprint] = added
		j2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		check(j2, want)
	})
}
