// Package checkpoint journals completed simulation results so an
// interrupted sweep can resume without re-simulating finished cells.
//
// A journal is a JSONL file: one Record per line, keyed by a
// deterministic cell fingerprint (label + geometry + policy id + stream
// digest — whatever determines the cell's outcome). Writes are
// append-only and every record is fsync'd before Append returns, so
// after a crash the file is a valid prefix of the run; a torn final
// line (the crash landed mid-write) is discarded and truncated away on
// reopen.
//
// Guarantees, as DESIGN.md's failure model states them:
//
//   - The journal is at-least-once: a cell whose result was computed but
//     not yet durable when the process died is re-simulated on resume.
//   - Resumed output is exactly-once: simulations are deterministic, so a
//     re-simulated cell reproduces its record bit-for-bit, and a caller
//     that emits results in cell order (cmd/dynex-sweep's CSV) produces
//     byte-identical output to an uninterrupted run.
package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/cache"
)

// Record is one journaled cell result.
type Record struct {
	// Fingerprint identifies the cell across runs; see Fingerprint.
	Fingerprint string `json:"fp"`
	// Label echoes the cell's human-readable label.
	Label string `json:"label,omitempty"`
	// Stats is the simulation outcome for engine-cell journals.
	Stats cache.Stats `json:"stats,omitempty"`
	// Attempts echoes the engine's attempt count for the cell.
	Attempts int `json:"attempts,omitempty"`
	// WallNS is the cell's wall-clock time in nanoseconds (informational;
	// a resumed run reports the original simulation's time).
	WallNS int64 `json:"wall_ns,omitempty"`
	// Payload holds opaque caller data for journals whose unit of work is
	// not an engine cell (cmd/dynex-experiments journals each rendered
	// experiment here).
	Payload string `json:"payload,omitempty"`
}

// Fingerprint derives a deterministic identity from the parts that
// determine a cell's outcome. Parts are length-prefixed before hashing,
// so ("ab","c") and ("a","bc") do not collide, and the digest is stable
// across runs and platforms.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s|", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Journal is an append-only JSONL record store with crash recovery. All
// methods are goroutine-safe; Append is typically called from the
// engine's serialized OnResult callback.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	recs map[string]Record
}

// Open opens or creates the journal at path, loading every complete
// record already present. A torn or corrupt tail — the signature of a
// crash mid-write — is truncated away so appends resume at a record
// boundary; duplicate fingerprints keep the latest record (the journal is
// at-least-once).
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	j := &Journal{f: f, recs: map[string]Record{}}
	good, err := j.load()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

// load reads the journal, filling recs from every complete record, and
// returns the byte offset where the last complete record ends.
func (j *Journal) load() (int64, error) {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return 0, err
	}
	var off int64
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail: line never finished
		}
		var rec Record
		if err := json.Unmarshal(data[:nl], &rec); err != nil || rec.Fingerprint == "" {
			break // corrupt line: treat it and everything after as torn
		}
		j.recs[rec.Fingerprint] = rec
		off += int64(nl) + 1
		data = data[nl+1:]
	}
	return off, nil
}

// Len returns the number of distinct records loaded or appended.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Lookup returns the journaled record for a fingerprint.
func (j *Journal) Lookup(fp string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[fp]
	return rec, ok
}

// Append journals one record: the line is written to the file and
// fsync'd before Append returns.
func (j *Journal) Append(rec Record) error {
	if rec.Fingerprint == "" {
		return errors.New("checkpoint: record needs a fingerprint")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Book the record only once it is on disk, so Lookup and Len never
	// report one the file lacks.
	if err := j.syncLocked(); err != nil {
		return err
	}
	j.recs[rec.Fingerprint] = rec
	return nil
}

func (j *Journal) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	syncErr := j.syncLocked()
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return syncErr
}
