package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestRoundTrip writes one value of every scalar kind plus framed
// sections and reads them back.
func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Begin("alpha")
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(1 << 62)
	w.I64(-12345)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.14159)
	w.String("hello")
	w.Ints([]int{3, -1, 4})
	w.U64s([]uint64{9, 8})
	w.End()
	w.Begin("beta")
	w.Len(2)
	w.U8(5)
	w.U8(6)
	w.End()
	snap := w.Snapshot()

	r := NewReader(snap)
	r.Begin("alpha")
	if got := r.U8(); got != 0xab {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<62 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -12345 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	ints := r.Ints()
	if len(ints) != 3 || ints[0] != 3 || ints[1] != -1 || ints[2] != 4 {
		t.Fatalf("Ints = %v", ints)
	}
	u64s := r.U64s()
	if len(u64s) != 2 || u64s[0] != 9 || u64s[1] != 8 {
		t.Fatalf("U64s = %v", u64s)
	}
	r.End()
	r.Begin("beta")
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d", got)
	}
	if a, b := r.U8(), r.U8(); a != 5 || b != 6 {
		t.Fatalf("elements = %d, %d", a, b)
	}
	r.End()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSectionMismatch requires a wrong section name, a partial section
// read, and a truncated payload to each fail with a sticky error.
func TestSectionMismatch(t *testing.T) {
	w := NewWriter()
	w.Begin("good")
	w.U64(1)
	w.End()
	snap := w.Snapshot()

	r := NewReader(snap)
	r.Begin("bad")
	if r.Err() == nil {
		t.Fatal("wrong section name not rejected")
	}

	r = NewReader(snap)
	r.Begin("good")
	r.End() // 8 bytes unread
	if r.Err() == nil {
		t.Fatal("partial section read not rejected")
	}

	r = NewReader(snap)
	r.Begin("good")
	r.U64()
	r.U64() // past section end
	if r.Err() == nil {
		t.Fatal("section overrun not rejected")
	}
}

// TestCountOverrun requires a count that overruns its section to fail
// before any decoder sizes an allocation or a loop by it. Each case
// writes a count followed by 8 bytes: Len allows one element per byte
// left, Ints and U64s one per 8 bytes.
func TestCountOverrun(t *testing.T) {
	for _, c := range []struct {
		name  string
		count uint32
		read  func(*Reader) int
		ok    bool
	}{
		{"Len fits", 8, (*Reader).Len, true},
		{"Len overruns", 9, (*Reader).Len, false},
		{"Len huge", 1 << 31, (*Reader).Len, false},
		{"U64s fits", 1, func(r *Reader) int { return len(r.U64s()) }, true},
		{"U64s overruns", 2, func(r *Reader) int { return len(r.U64s()) }, false},
		{"Ints huge", 1 << 31, func(r *Reader) int { return len(r.Ints()) }, false}, // 16 GiB if honoured
	} {
		w := NewWriter()
		w.Begin("s")
		w.U32(c.count)
		w.U64(7)
		w.End()
		r := NewReader(w.Snapshot())
		r.Begin("s")
		n := c.read(r)
		if ok := r.Err() == nil; ok != c.ok || (ok && n != int(c.count)) || (!ok && n != 0) {
			t.Errorf("%s: read %d elements, err %v", c.name, n, r.Err())
		}
	}
}

// TestFileRoundTrip exercises WriteFile/ReadFile including corruption and
// version checks.
func TestFileRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.U64(42)
	w.End()
	snap := w.Snapshot()

	dir := t.TempDir()
	path := filepath.Join(dir, "test.ckpt")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(got)
	r.Begin("s")
	if v := r.U64(); v != 42 {
		t.Fatalf("payload = %d", v)
	}
	r.End()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte: the checksum must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("corrupted payload not rejected")
	}

	// Wrong magic.
	raw2 := append([]byte(nil), raw...)
	raw2[0] = 'X'
	if err := os.WriteFile(bad, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("bad magic not rejected")
	}

	// Another format version is ErrVersion, whatever the payload.
	old := &Snapshot{Version: Version - 1, Data: snap.Data}
	if err := old.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("version %d file: err %v, want ErrVersion", old.Version, err)
	}
}

// TestRawConsume covers the fresh-record shortcut: a record written once
// and repeated with Raw reads back through Consume, a differing record is
// left unread for the full decoder, and Consume never reads past the open
// section or fails the reader.
func TestRawConsume(t *testing.T) {
	rec := NewWriter()
	rec.U64(0)
	rec.Int(-1)
	rec.Len(0)
	fresh := rec.Snapshot().Data

	w := NewWriter()
	w.Begin("s")
	w.Raw(fresh)
	w.U64(7) // a used record: differs in its first field
	w.Int(-1)
	w.Len(0)
	w.Raw(fresh[:len(fresh)-1]) // a truncated copy ends the section
	w.End()

	r := NewReader(w.Snapshot())
	r.Begin("s")
	if !r.Consume(fresh) {
		t.Fatal("Consume missed a Raw-written record")
	}
	if r.Consume(fresh) {
		t.Fatal("Consume matched a differing record")
	}
	if v, n, l := r.U64(), r.Int(), r.Len(); v != 7 || n != -1 || l != 0 {
		t.Fatalf("record after a failed Consume read back as %d %d %d", v, n, l)
	}
	if r.Consume(fresh) {
		t.Fatal("Consume matched past the end of the section")
	}
	if r.Err() != nil {
		t.Fatalf("a failed Consume set an error: %v", r.Err())
	}
	for i := 0; i < len(fresh)-1; i++ {
		r.U8()
	}
	r.End()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// BenchmarkCodec measures raw encode+decode throughput of the scalar
// paths (the per-field cost every subsystem snapshot pays).
func BenchmarkCodec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter()
		w.Begin("s")
		for j := 0; j < 128; j++ {
			w.U64(uint64(j))
		}
		w.End()
		r := NewReader(w.Snapshot())
		r.Begin("s")
		for j := 0; j < 128; j++ {
			r.U64()
		}
		r.End()
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}
