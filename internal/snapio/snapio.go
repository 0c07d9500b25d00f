// Package snapio provides the low-level binary encoding shared by the
// knowledge-graph snapshot format (internal/graph and internal/storage write
// their sections with it; internal/core frames the sections into a file).
//
// The format is deliberately dumb: little-endian fixed-width integers and
// length-prefixed flat columns, so a multi-gigabyte snapshot is written as a
// handful of large sequential transfers and read with no per-row decoding at
// all. Every value a Writer emits feeds a running CRC-32C, so the caller can
// frame sections with a trailing checksum.
//
// There is one decoder, ViewReader, over a snapshot held in memory: either
// owned bytes read whole by ReadAll (the heap loaders) or a read-only file
// mapping (OpenMap). Columns are views of those bytes either way; the two
// sources differ only in how much validation a decoder above this package
// runs (see ViewReader.Mapped).
//
// Corruption never panics: malformed input surfaces as one of the typed
// sentinel errors (ErrTruncated, ErrCorrupt), which file-level callers wrap
// alongside their own ErrBadMagic / ErrVersion / ErrChecksum checks.
package snapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"slices"

	"gqbe/internal/fault"
)

// Typed snapshot errors; test with errors.Is. ErrBadMagic, ErrVersion and
// ErrChecksum are returned by the file-level framing in internal/core;
// ErrTruncated and ErrCorrupt by any decoder primitive.
var (
	// ErrBadMagic means the input does not start with the snapshot magic —
	// it is not a snapshot file at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion means the snapshot was written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrChecksum means the payload does not match its recorded CRC-32C.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrTruncated means the input ended before the encoded structure did.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt means a decoded value is structurally impossible (e.g. a
	// column length past the sanity bound), caught before the checksum
	// trailer is even reachable.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrTooLarge is a write-side error: a column or blob exceeds what the
	// u32 length prefixes can represent (MaxElems). Writers fail fast
	// instead of emitting a file the reader would reject as corrupt.
	ErrTooLarge = errors.New("snapshot: value too large for format")
)

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// amd64/arm64, which matters at multi-GB snapshot sizes.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxElems bounds any single column's element count: a length prefix past
// it is ErrCorrupt; 1<<31 elements is already past what int32 node IDs can
// index.
const MaxElems = 1 << 31

// chunkBytes is the Writer's staging-buffer size for column transfers:
// large enough that a multi-million-row column moves in a few syscalls,
// small enough to stay cache-friendly.
const chunkBytes = 1 << 16

// Writer encodes snapshot values onto an io.Writer, keeping a running
// CRC-32C of every byte written. The first I/O error sticks: subsequent
// writes are no-ops and Err returns it, so callers can emit a whole section
// and check once.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	n   int64 // hashed bytes written; drives Align4
	buf [chunkBytes]byte
	err error
}

// NewWriter returns a Writer over w. The caller is responsible for any
// buffering on w (the column primitives already write in large chunks).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, crc: crc32.New(castagnoli)}
}

// Err returns the first error encountered, or nil.
func (w *Writer) Err() error { return w.err }

// Sum32 returns the CRC-32C of everything written so far.
func (w *Writer) Sum32() uint32 { return w.crc.Sum32() }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if err := fault.Check(fault.SnapioWriteErr); err != nil {
		w.err = fmt.Errorf("snapshot: write: %w", err)
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = fmt.Errorf("snapshot: write: %w", err)
		return
	}
	w.crc.Write(p)
	w.n += int64(len(p))
}

// Align4 zero-pads the stream to the next 4-byte boundary. Writers call it
// after every byte blob so that every subsequent fixed-width column starts
// 4-aligned — the layout guarantee the zero-copy decoder's []int32 casts
// rely on.
func (w *Writer) Align4() {
	if pad := int(-w.n & 3); pad != 0 {
		var zero [3]byte
		w.write(zero[:pad])
	}
}

// Raw writes p verbatim (hashed) — file magic and other fixed framing.
func (w *Writer) Raw(p []byte) { w.write(p) }

// RawU32 writes a little-endian uint32 without hashing it — the file
// trailer, which stores the checksum itself.
func (w *Writer) RawU32(v uint32) {
	if w.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if _, err := w.w.Write(b[:]); err != nil {
		w.err = fmt.Errorf("snapshot: write: %w", err)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.write(b[:])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.write(b[:])
}

// I32 writes a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// Len writes a length prefix, failing with ErrTooLarge when it exceeds
// what the format can represent — the write-side mirror of ViewReader.Len,
// so an oversized column fails the snapshot write instead of producing a
// file every load would reject as corrupt.
func (w *Writer) Len(n int) {
	if n < 0 || uint64(n) >= MaxElems {
		if w.err == nil {
			w.err = fmt.Errorf("%w: length %d", ErrTooLarge, n)
		}
		return
	}
	w.U32(uint32(n))
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.RawString(s)
}

// RawString writes a string's bytes with no length prefix — for blob
// columns whose lengths are stored separately.
func (w *Writer) RawString(s string) {
	if w.err != nil || len(s) == 0 {
		return
	}
	// Stage through the chunk buffer to avoid a per-call allocation from
	// the string→[]byte conversion.
	for len(s) > 0 {
		n := copy(w.buf[:], s)
		w.write(w.buf[:n])
		s = s[n:]
	}
}

// I32Col writes a length-prefixed flat column of any int32-typed values
// (graph.NodeID, graph.LabelID, int32 offsets) in chunked little-endian
// form.
func I32Col[T ~int32](w *Writer, xs []T) {
	w.Len(len(xs))
	for len(xs) > 0 && w.err == nil {
		n := len(xs)
		if n > chunkBytes/4 {
			n = chunkBytes / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(w.buf[4*i:], uint32(xs[i]))
		}
		w.write(w.buf[:4*n])
		xs = xs[n:]
	}
}

// ColWriter streams one length-prefixed int32 column element by element,
// so callers deriving a column from a larger structure (adjacency lists,
// pair slices) need not materialize a temp slice of it first — at
// snapshot-write time the graph is already resident, and an extra
// O(numEdges) allocation is exactly what a multi-GB host cannot spare.
type ColWriter struct {
	w         *Writer
	remaining int
	off       int // bytes staged in w.buf
}

// StartI32Col writes the length prefix for an n-element column and returns
// the element sink. The caller must Add exactly n values and then Close;
// no other Writer method may be used in between (the chunk buffer is
// shared).
func (w *Writer) StartI32Col(n int) *ColWriter {
	w.Len(n)
	return &ColWriter{w: w, remaining: n}
}

// Add appends one element to the column.
func (c *ColWriter) Add(v int32) {
	if c.w.err != nil {
		return
	}
	if c.remaining <= 0 {
		c.w.err = fmt.Errorf("%w: column element past its declared length", ErrTooLarge)
		return
	}
	c.remaining--
	binary.LittleEndian.PutUint32(c.w.buf[c.off:], uint32(v))
	c.off += 4
	if c.off == chunkBytes {
		c.w.write(c.w.buf[:c.off])
		c.off = 0
	}
}

// Close flushes the final chunk, failing if the element count disagrees
// with the declared length.
func (c *ColWriter) Close() error {
	if c.off > 0 && c.w.err == nil {
		c.w.write(c.w.buf[:c.off])
		c.off = 0
	}
	if c.remaining != 0 && c.w.err == nil {
		c.w.err = fmt.Errorf("%w: column closed %d elements short", ErrCorrupt, c.remaining)
	}
	return c.w.err
}

// faultChunk is the granularity at which ReadAll applies the snapio.read.*
// fault points: fine enough that even a small test snapshot spans several
// chunks, so an injected fault lands mid-file rather than at byte zero.
const faultChunk = 256

// ReadAll reads a snapshot's whole input for the heap loaders, which then
// decode it in place with a ViewReader. A reader that knows its size — a
// file (Stat) or an in-memory reader (Len) — gets one exact allocation, as
// os.ReadFile does; any other doubles its buffer as it fills. Either way
// the allocation follows the bytes actually present, never a length prefix
// inside them.
//
// It is the one place the heap path reads, so the snapio.read.* fault
// points apply here, once per faultChunk in file order: an injected I/O
// error, an injected ErrTruncated, or one flipped bit that the CRC-32C
// check over the returned bytes must catch.
func ReadAll(r io.Reader) ([]byte, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if st, err := r.Stat(); err == nil {
			size = int(st.Size())
		}
	}
	// +1 so the read that reports EOF needs no growth.
	data := make([]byte, 0, max(size+1, 512))
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot: read: %w", err)
		}
		if len(data) == cap(data) {
			data = slices.Grow(data, len(data))
		}
	}
	if fault.Enabled() {
		for off := 0; off < len(data); off += faultChunk {
			if err := fault.Check(fault.SnapioReadErr); err != nil {
				return nil, fmt.Errorf("snapshot: read: %w", err)
			}
			if fault.Fires(fault.SnapioReadTruncate) {
				return nil, ErrTruncated
			}
			if fault.Fires(fault.SnapioReadFlip) {
				data[off] ^= 0x01
			}
		}
	}
	return data, nil
}

// Checksum computes the CRC-32C of an in-memory snapshot's payload (all but
// the 4-byte trailer) and returns it alongside the recorded trailer value —
// ChecksumFile for bytes the heap loaders already hold.
func Checksum(data []byte) (got, want uint32, err error) {
	payload := len(data) - 4
	if payload < 0 {
		return 0, 0, fmt.Errorf("snapshot: checksum: %w", ErrTruncated)
	}
	return crc32.Checksum(data[:payload], castagnoli), binary.LittleEndian.Uint32(data[payload:]), nil
}
