// Package journal implements the append-only JSON-lines log the sweep
// and fleet layers persist their state through: one JSON document per
// line, appended with a single write so a hard kill (SIGKILL, power
// loss) tears at most the final line, and a recovery pass that replays
// the longest intact prefix and silently discards the torn tail.
//
// The fleet's cell queue, lease log, result log and poison list all
// share this one tested implementation. The contract:
//
//   - Append marshals v, appends '\n', and hands the kernel the whole
//     line in one Write call. On a POSIX O_APPEND file descriptor the
//     line is therefore contiguous; a crash mid-call leaves a prefix of
//     it, never an interleaving.
//   - Replay streams every complete line to fn and stops — without
//     error — at the first line that is not valid JSON: everything at
//     or beyond a torn line is suspect.
//   - Open repairs a torn final line by truncating it, so records
//     appended after a recovery land on a line boundary rather than
//     gluing onto the garbage (which a later Replay would read as
//     mid-file corruption, discarding every record after it).
//
// FuzzJournalRecover holds Replay to "never errors, never panics, and
// yields only valid JSON documents" for arbitrary file contents.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"sync"
)

// ErrStop aborts a Replay early without error: fn returns it to say
// "the prefix I have is enough" (e.g. a consumer that detected a record
// it cannot interpret and wants to stop at the first bad line).
var ErrStop = errors.New("journal: stop replay")

// MaxLine bounds a single journal line on replay (1 MiB). Append does
// not enforce it; records in this repository are far smaller.
const MaxLine = 1 << 20

// Writer is an append-only JSON-lines journal, safe for concurrent use.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens (creating if needed) the journal at path for appending. A
// torn final line — the residue of a hard kill mid-append — is truncated
// away first, so the next Append starts on a line boundary instead of
// gluing a valid record onto garbage (which a later Replay would read as
// mid-file corruption and stop at, losing every record after it).
func Open(path string) (*Writer, error) {
	if err := repairTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f}, nil
}

// repairTornTail truncates the file at path after its last newline (a
// missing file is fine). Called before the append descriptor opens.
func repairTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	// Walk back in chunks until a newline (or the file start) is found.
	const chunk = 4096
	end := size
	for end > 0 {
		start := end - chunk
		if start < 0 {
			start = 0
		}
		buf := make([]byte, end-start)
		if _, err := f.ReadAt(buf, start); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			keep := start + int64(i) + 1
			if keep == size {
				return nil
			}
			return f.Truncate(keep)
		}
		end = start
	}
	if size != 0 {
		// No newline anywhere: the whole file is one torn line.
		return f.Truncate(0)
	}
	return nil
}

// Append marshals v and appends it as one line in a single write.
func (w *Writer) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(b)
	return err
}

// AppendSync appends like Append and then fsyncs, for records whose
// loss would repeat non-trivial work (completed simulation results,
// poison verdicts).
func (w *Writer) AppendSync(v any) error {
	if err := w.Append(v); err != nil {
		return err
	}
	return w.Sync()
}

// Sync flushes the journal to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

// Close closes the journal file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Path returns the journal's file name.
func (w *Writer) Path() string { return w.f.Name() }

// Replay streams every complete JSON line of the journal at path to fn,
// in append order. A missing file replays nothing. Replay stops cleanly
// at the first torn or non-JSON line (the tail of a hard kill); it
// returns fn's first non-nil error, except ErrStop which reads as a
// clean early stop.
func Replay(path string, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), MaxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if !json.Valid(line) {
			return nil // torn tail from a hard kill; everything after is suspect
		}
		if err := fn(line); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	// A scanner error (e.g. a line beyond MaxLine) is indistinguishable
	// from corruption: treat it as the torn tail, keep the prefix.
	return nil
}
