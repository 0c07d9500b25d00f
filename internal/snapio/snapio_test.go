package snapio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(7)
	w.U64(1 << 40)
	w.I32(-3)
	w.String("hello")
	w.String("")
	w.Align4()
	col := []int32{0, 1, -5, 1 << 30}
	I32Col(w, col)
	I32Col(w, []int32(nil))
	if w.Err() != nil {
		t.Fatalf("write: %v", w.Err())
	}
	sum := w.Sum32()
	w.RawU32(sum)

	r := NewView(buf.Bytes())
	if got := r.U32(); got != 7 {
		t.Errorf("U32 = %d, want 7", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I32(); got != -3 {
		t.Errorf("I32 = %d, want -3", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	r.Align4()
	gotCol := ReadI32Col[int32](r)
	if len(gotCol) != len(col) {
		t.Fatalf("col len = %d, want %d", len(gotCol), len(col))
	}
	for i := range col {
		if gotCol[i] != col[i] {
			t.Errorf("col[%d] = %d, want %d", i, gotCol[i], col[i])
		}
	}
	if got := ReadI32Col[int32](r); got != nil {
		t.Errorf("nil col = %v", got)
	}
	if got := r.U32(); got != sum {
		t.Errorf("trailer = %08x, want %08x", got, sum)
	}
	if r.Err() != nil {
		t.Fatalf("read: %v", r.Err())
	}
	got, want, err := Checksum(buf.Bytes())
	if err != nil || got != sum || want != sum {
		t.Errorf("Checksum = (%08x, %08x, %v), want writer CRC %08x twice", got, want, err, sum)
	}
}

// TestLargeColumn crosses the writer's chunking boundary.
func TestLargeColumn(t *testing.T) {
	col := make([]int32, chunkBytes/4*3+17)
	for i := range col {
		col[i] = int32(i * 31)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	I32Col(w, col)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	r := NewView(buf.Bytes())
	got := ReadI32Col[int32](r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(col) {
		t.Fatalf("len = %d, want %d", len(got), len(col))
	}
	for i := range col {
		if got[i] != col[i] {
			t.Fatalf("col[%d] = %d, want %d", i, got[i], col[i])
		}
	}
}

func TestTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	I32Col(w, []int32{1, 2, 3, 4, 5})
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewView(full[:cut])
		ReadI32Col[int32](r)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

// TestImplausibleLength: a length prefix past MaxElems is ErrCorrupt, and
// one within it but past the bytes present is ErrTruncated.
func TestImplausibleLength(t *testing.T) {
	for prefix, want := range map[uint32]error{0xFFFFFFFF: ErrCorrupt, MaxElems - 1: ErrTruncated} {
		var buf bytes.Buffer
		NewWriter(&buf).U32(prefix)
		r := NewView(buf.Bytes())
		ReadI32Col[int32](r)
		if !errors.Is(r.Err(), want) {
			t.Fatalf("prefix %#x: err = %v, want %v", prefix, r.Err(), want)
		}
	}
}

// TestErrSticks verifies a ViewReader stays failed after the first error,
// so a section decode can check Err once at the end.
func TestErrSticks(t *testing.T) {
	r := NewView(nil)
	_ = r.U32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	_ = r.String()
	_ = ReadI32Col[int32](r)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("sticky err = %v", r.Err())
	}
}

// TestReadAll: the heap loaders' input comes back byte for byte from a
// reader that knows its size (Len, Stat) and from one that does not; a
// reader error surfaces wrapped.
func TestReadAll(t *testing.T) {
	data := make([]byte, 3*faultChunk+5)
	for i := range data {
		data[i] = byte(i * 7)
	}
	path := filepath.Join(t.TempDir(), "in")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{
		"len":     bytes.NewReader(data),
		"stat":    f,
		"unsized": iotest.OneByteReader(bytes.NewReader(data)),
	} {
		if got, err := ReadAll(r); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s reader: (%d bytes, %v), want the input", name, len(got), err)
		}
	}
	boom := errors.New("disk on fire")
	if _, err := ReadAll(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Fatalf("reader error: err = %v, want it wrapped", err)
	}
}
