package snapio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// viewPayload writes one of every value kind through a Writer and returns
// the encoded bytes plus the column that went in.
func viewPayload(t *testing.T) ([]byte, []int32) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(7)
	w.U64(1 << 40)
	w.I32(-3)
	w.String("hello")
	w.Align4()
	w.String("")
	col := []int32{0, 1, -5, 1 << 30}
	I32Col(w, col)
	if w.Err() != nil {
		t.Fatalf("write: %v", w.Err())
	}
	w.RawU32(w.Sum32())
	return buf.Bytes(), col
}

// readPayload decodes viewPayload's layout and checks every value,
// returning the decoded column.
func readPayload(t *testing.T, r *ViewReader, col []int32) []int32 {
	t.Helper()
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
	r.Align4()
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	gotCol := ReadI32Col[int32](r)
	if len(gotCol) != len(col) {
		t.Fatalf("col len = %d, want %d", len(gotCol), len(col))
	}
	for i := range col {
		if gotCol[i] != col[i] {
			t.Errorf("col[%d] = %d, want %d", i, gotCol[i], col[i])
		}
	}
	_ = r.U32()
	if r.Err() != nil {
		t.Fatalf("read: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
	return gotCol
}

// TestViewReaderRoundTrip: a ViewReader decodes the Writer's output
// exactly, and its columns alias the input buffer (zero copy) on
// little-endian hosts.
func TestViewReaderRoundTrip(t *testing.T) {
	raw, col := viewPayload(t)
	v := NewView(raw)
	if v.Mapped() {
		t.Error("ViewReader over owned bytes reports Mapped")
	}
	gotCol := readPayload(t, v, col)
	if hostLittleEndian {
		colBase := uintptr(unsafe.Pointer(unsafe.SliceData(gotCol)))
		bufBase := uintptr(unsafe.Pointer(unsafe.SliceData(raw)))
		if colBase < bufBase || colBase >= bufBase+uintptr(len(raw)) {
			t.Error("decoded column does not alias the input buffer")
		}
	}
	if v.Pos() != int64(len(raw)) {
		t.Errorf("Pos = %d, want %d", v.Pos(), len(raw))
	}
}

// TestViewReaderMisalignedBase: over a buffer whose base is not 4-byte
// aligned the cast is unsound, so columns must come back as decoded copies —
// same values, owned memory.
func TestViewReaderMisalignedBase(t *testing.T) {
	raw, col := viewPayload(t)
	shifted := make([]byte, len(raw)+1)
	copy(shifted[1:], raw)
	v := NewView(shifted[1:])
	if !v.copyCols && hostLittleEndian {
		t.Fatal("misaligned base did not force the copy path")
	}
	gotCol := readPayload(t, v, col)
	colBase := uintptr(unsafe.Pointer(unsafe.SliceData(gotCol)))
	bufBase := uintptr(unsafe.Pointer(unsafe.SliceData(shifted)))
	if colBase >= bufBase && colBase < bufBase+uintptr(len(shifted)) {
		t.Error("copy-path column aliases the misaligned buffer")
	}
}

// TestViewReaderMisalignedColumn: a column that starts off a 4-byte boundary
// is framing corruption (writers always pad), not a casting opportunity.
func TestViewReaderMisalignedColumn(t *testing.T) {
	raw := []byte{0xAA, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}
	v := NewView(raw)
	v.Raw(make([]byte, 1)) // knock pos off alignment before the column
	if got := ReadI32Col[int32](v); got != nil {
		t.Errorf("misaligned col = %v, want nil", got)
	}
	if !errors.Is(v.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", v.Err())
	}
}

// TestViewReaderAlign4 rejects nonzero padding and accepts zero padding.
func TestViewReaderAlign4(t *testing.T) {
	v := NewView([]byte{5, 0, 0, 0, 'x', 0, 0, 0})
	_ = v.U32()
	v.Raw(make([]byte, 1))
	v.Align4()
	if v.Err() != nil {
		t.Fatalf("zero padding rejected: %v", v.Err())
	}
	bad := NewView([]byte{5, 0, 0, 0, 'x', 1, 0, 0})
	_ = bad.U32()
	bad.Raw(make([]byte, 1))
	bad.Align4()
	if !errors.Is(bad.Err(), ErrCorrupt) {
		t.Fatalf("nonzero padding: err = %v, want ErrCorrupt", bad.Err())
	}
}

// TestViewReaderTruncated: every prefix of a valid payload fails with
// ErrTruncated and the error sticks.
func TestViewReaderTruncated(t *testing.T) {
	raw, col := viewPayload(t)
	for cut := 0; cut < len(raw); cut++ {
		v := NewView(raw[:cut])
		_ = v.U32()
		_ = v.U64()
		_ = v.I32()
		_ = v.String()
		v.Align4()
		_ = v.String()
		_ = ReadI32Col[int32](v)
		_ = v.U32()
		if !errors.Is(v.Err(), ErrTruncated) && !errors.Is(v.Err(), ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want typed error", cut, v.Err())
		}
	}
	_ = col
}

// TestViewReaderImplausibleLength: a length past MaxElems is ErrCorrupt.
func TestViewReaderImplausibleLength(t *testing.T) {
	v := NewView([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	_ = ReadI32Col[int32](v)
	if !errors.Is(v.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", v.Err())
	}
}

// TestOpenMapLifecycle: map a real file, read it through the mapping, close
// twice, advise across every edge case without error.
func TestOpenMapLifecycle(t *testing.T) {
	raw, col := viewPayload(t)
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMap(path)
	if errors.Is(err, ErrMapUnsupported) {
		t.Skip("mmap unsupported on this platform")
	}
	if err != nil {
		t.Fatalf("OpenMap: %v", err)
	}
	if m.Len() != len(raw) || !bytes.Equal(m.Data(), raw) {
		t.Fatalf("mapped %d bytes != file %d bytes", m.Len(), len(raw))
	}
	if m.Path() != path {
		t.Errorf("Path = %q, want %q", m.Path(), path)
	}
	v := m.View()
	if !v.Mapped() {
		t.Error("Map.View does not report Mapped")
	}
	readPayload(t, v, col)

	// Advisory hints must tolerate clamping and degenerate ranges.
	for _, r := range [][2]int{{0, m.Len()}, {4, m.Len() * 2}, {-1, 5}, {m.Len(), 4}, {0, 0}} {
		if err := m.Advise(r[0], r[1]); err != nil {
			t.Errorf("Advise(%d, %d): %v", r[0], r[1], err)
		}
	}

	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if m.Data() != nil {
		t.Error("Data non-nil after Close")
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := m.Advise(0, 4); err != nil {
		t.Errorf("Advise after Close: %v", err)
	}
}

// TestOpenMapErrors: missing and empty files fail typed, not mapped.
func TestOpenMapErrors(t *testing.T) {
	if _, err := OpenMap(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("OpenMap on missing file succeeded")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMap(empty); !errors.Is(err, ErrTruncated) {
		t.Errorf("OpenMap on empty file: err = %v, want ErrTruncated", err)
	}
}

// TestChecksumFile: got matches want on an intact file, diverges after a
// payload flip, and a file shorter than its own trailer is ErrTruncated.
func TestChecksumFile(t *testing.T) {
	raw, _ := viewPayload(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, want, err := ChecksumFile(path)
	if err != nil {
		t.Fatalf("ChecksumFile: %v", err)
	}
	if got != want {
		t.Fatalf("intact file: got %08x, want %08x", got, want)
	}

	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	badPath := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, want, err = ChecksumFile(badPath)
	if err != nil {
		t.Fatalf("ChecksumFile on flipped file: %v", err)
	}
	if got == want {
		t.Error("flipped payload still checksummed clean")
	}

	short := filepath.Join(dir, "short.snap")
	if err := os.WriteFile(short, raw[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ChecksumFile(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("short file: err = %v, want ErrTruncated", err)
	}
}
