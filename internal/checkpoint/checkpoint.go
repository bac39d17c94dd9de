// Package checkpoint implements the versioned binary codec behind the
// platform's deterministic simulation checkpoints: a flat little-endian
// stream of named sections, one per subsystem, written by each subsystem's
// snapshot method and read back in the same order on restore.
//
// The format is deliberately simple — fixed-width scalars, length-prefixed
// strings and byte slices, and single-level section framing whose names
// and lengths are validated on read, so an encode/decode skew fails
// loudly at the exact section instead of corrupting downstream state.
// Determinism is inherited from the writers: every subsystem serializes
// maps in sorted key order and slices in their semantic order, so the
// same simulation state always produces the same bytes.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Version is the current checkpoint format version. Readers reject files
// with a different version: state layout changes must bump it. Version 2
// encodes histograms as obs.LogHist and drops three fields nothing read.
// Version 3 writes the NoC's router-bound link events as its event wheel
// (base cycle, then flits and credits in due order) in place of per-link
// queues and pending-link lists, and each NI's inbound link events in its
// own record.
const Version uint32 = 3

// ErrVersion marks a snapshot of another format version; it is reported
// before any payload is decoded.
var ErrVersion = errors.New("checkpoint: unsupported format version")

// magic identifies checkpoint files on disk.
var magic = [8]byte{'O', 'C', 'O', 'R', 'C', 'K', 'P', 'T'}

// Snapshot is a complete serialized platform state: the section stream
// plus the format version it was written with. It is the unit the
// platform's Snapshot/Restore APIs exchange, both in memory (warm-start
// forking) and on disk (resumable sweeps).
type Snapshot struct {
	Version uint32
	Data    []byte
}

// Size returns the snapshot payload size in bytes.
func (s *Snapshot) Size() int { return len(s.Data) }

// WriteFile persists the snapshot to path atomically (write to a
// temporary file in the same directory, then rename), so an interrupted
// writer never leaves a truncated checkpoint behind.
func (s *Snapshot) WriteFile(path string) error {
	header := make([]byte, 16)
	copy(header, magic[:])
	binary.LittleEndian.PutUint32(header[8:], s.Version)
	binary.LittleEndian.PutUint32(header[12:], crc32.ChecksumIEEE(s.Data))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(header); err == nil {
		_, err = f.Write(s.Data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile loads a snapshot written by WriteFile, validating the magic,
// version and payload checksum.
func ReadFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 16 {
		return nil, fmt.Errorf("checkpoint: %s: truncated header (%d bytes)", filepath.Base(path), len(raw))
	}
	if [8]byte(raw[:8]) != magic {
		return nil, fmt.Errorf("checkpoint: %s: bad magic", filepath.Base(path))
	}
	v := binary.LittleEndian.Uint32(raw[8:])
	if v != Version {
		return nil, fmt.Errorf("%w: %s: format version %d, this build reads %d", ErrVersion, filepath.Base(path), v, Version)
	}
	data := raw[16:]
	if sum := binary.LittleEndian.Uint32(raw[12:]); sum != crc32.ChecksumIEEE(data) {
		return nil, fmt.Errorf("checkpoint: %s: payload checksum mismatch", filepath.Base(path))
	}
	return &Snapshot{Version: v, Data: data}, nil
}

// ---------------------------------------------------------------- writer --

// Writer builds a snapshot payload. The zero value is ready to use; it
// never fails — section balance is checked when Snapshot() is taken.
type Writer struct {
	buf      []byte
	secStart int // offset of the open section's length field, -1 when closed
	open     string
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{secStart: -1} }

// Begin opens a named section. Sections do not nest.
func (w *Writer) Begin(name string) {
	if w.secStart >= 0 {
		panic(fmt.Sprintf("checkpoint: Begin(%q) inside open section %q", name, w.open))
	}
	w.String(name)
	w.secStart = len(w.buf)
	w.open = name
	w.U64(0) // length placeholder, patched by End
}

// End closes the open section, patching its length.
func (w *Writer) End() {
	if w.secStart < 0 {
		panic("checkpoint: End without open section")
	}
	binary.LittleEndian.PutUint64(w.buf[w.secStart:], uint64(len(w.buf)-w.secStart-8))
	w.secStart = -1
	w.open = ""
}

// Snapshot seals the writer into a Snapshot.
func (w *Writer) Snapshot() *Snapshot {
	if w.secStart >= 0 {
		panic(fmt.Sprintf("checkpoint: Snapshot with open section %q", w.open))
	}
	return &Snapshot{Version: Version, Data: w.buf}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 writes a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a signed 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(vs []int) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Len writes a slice/map length (uint32).
func (w *Writer) Len(n int) { w.U32(uint32(n)) }

// Raw appends b verbatim. b must be a record encoded by a Writer, such as
// a fresh component's record encoded once and repeated for every
// component that was never built.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// ---------------------------------------------------------------- reader --

// Reader decodes a snapshot payload. Errors are sticky: after the first
// decode failure every read returns a zero value, and Err() reports the
// failure — callers check it once per restore instead of per field.
type Reader struct {
	data   []byte
	off    int
	secEnd int
	open   string
	err    error
}

// NewReader returns a reader over snap's payload.
func NewReader(snap *Snapshot) *Reader {
	return &Reader{data: snap.Data, secEnd: -1}
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// Begin opens the next section, which must carry the expected name.
func (r *Reader) Begin(name string) {
	if r.err != nil {
		return
	}
	if r.secEnd >= 0 {
		r.fail("Begin(%q) inside open section %q", name, r.open)
		return
	}
	got := r.String()
	if r.err != nil {
		return
	}
	if got != name {
		r.fail("section %q where %q expected at offset %d", got, name, r.off)
		return
	}
	n := r.U64()
	if r.err != nil {
		return
	}
	if uint64(len(r.data)-r.off) < n {
		r.fail("section %q length %d overruns payload", name, n)
		return
	}
	r.secEnd = r.off + int(n)
	r.open = name
}

// End closes the open section, requiring every byte of it to have been
// consumed — a partial read means the decoder skewed from the encoder.
func (r *Reader) End() {
	if r.err != nil {
		return
	}
	if r.secEnd < 0 {
		r.fail("End without open section")
		return
	}
	if r.off != r.secEnd {
		r.fail("section %q: %d bytes unread", r.open, r.secEnd-r.off)
		return
	}
	r.secEnd = -1
	r.open = ""
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.data)-r.off < n || (r.secEnd >= 0 && r.secEnd-r.off < n) {
		r.fail("truncated payload reading %d bytes at offset %d (section %q)", n, r.off, r.open)
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Index reads an int written by Writer.Int and fails the reader unless it
// lies in [0, n). A decoder reads through it a value that the restored
// state later indexes a fixed-size table with, so a corrupt payload fails
// the restore instead of the run.
func (r *Reader) Index(n int) int {
	v := r.Int()
	if r.err == nil && (v < 0 || v >= n) {
		r.fail("index %d outside [0, %d) before offset %d (section %q)", v, n, r.off, r.open)
		return 0
	}
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	if !r.need(n) {
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	n := int(r.U32())
	if n == 0 || !r.need(8*n) {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.Int()
	}
	return vs
}

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := int(r.U32())
	if n == 0 || !r.need(8*n) {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.U64()
	}
	return vs
}

// Len reads a slice/map length written by Writer.Len. Decoders size
// allocations and loops by it, so a count larger than the bytes left in
// the open section (or the payload) fails: an honest record never counts
// more elements than there are bytes after its count.
func (r *Reader) Len() int {
	n := int(r.U32())
	if !r.need(n) {
		return 0
	}
	return n
}

// Consume reads past b and reports true when the unread payload starts
// with b; otherwise it reads nothing and reports false. With b a complete
// record, a match means the next record is exactly b, which lets a decoder
// recognise a fresh component's record without building the component.
func (r *Reader) Consume(b []byte) bool {
	end := len(r.data)
	if r.secEnd >= 0 {
		end = r.secEnd
	}
	if r.err != nil || end-r.off < len(b) || !bytes.Equal(r.data[r.off:r.off+len(b)], b) {
		return false
	}
	r.off += len(b)
	return true
}
