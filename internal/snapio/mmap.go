package snapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"gqbe/internal/fault"
)

// ErrMapUnsupported is returned by OpenMap on platforms without mmap
// support (see mmap_other.go). Callers treat it like any other map failure:
// fall back to the heap-decoding snapshot loader.
var ErrMapUnsupported = errors.New("snapshot: mmap unsupported on this platform")

// Map is a read-only memory mapping of a snapshot file. The mapped bytes
// are shared with the page cache (PROT_READ + MAP_SHARED), so N processes
// mapping the same snapshot pay for its resident pages once, and pages are
// faulted in on first touch rather than at open. Close unmaps; every view
// handed out over Data is invalid afterwards — the engine close/unmap
// lifecycle (internal/core, internal/server) guarantees no request still
// holds one.
type Map struct {
	data []byte
	path string
}

// OpenMap maps path read-only in its entirety. Fails with ErrMapUnsupported
// where mmap is unavailable, ErrTruncated for an empty file, or a wrapped
// I/O error; the fault point snapio.map.err injects a failure here.
func OpenMap(path string) (*Map, error) {
	if err := fault.Check(fault.SnapioMapErr); err != nil {
		return nil, fmt.Errorf("snapshot: map %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: map: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: map: %w", err)
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("snapshot: map %s: %w", path, ErrTruncated)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("%w: %d-byte file exceeds address space", ErrTooLarge, size)
	}
	data, err := mapFile(f, int(size))
	if err != nil {
		return nil, err
	}
	return &Map{data: data, path: path}, nil
}

// Data returns the mapped bytes. Read-only: writing through the slice
// faults (the mapping is PROT_READ).
func (m *Map) Data() []byte { return m.data }

// View returns a ViewReader over the mapped bytes; its Mapped reports true.
func (m *Map) View() *ViewReader {
	v := NewView(m.data)
	v.mapped = true
	return v
}

// Len returns the mapped size in bytes.
func (m *Map) Len() int { return len(m.data) }

// Path returns the mapped file's path (diagnostics).
func (m *Map) Path() string { return m.path }

// Close unmaps the file. Idempotent; after the first call Data returns
// nil. The caller must guarantee no view of the mapping is still in use.
func (m *Map) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	if err := unmapFile(data); err != nil {
		return fmt.Errorf("snapshot: unmap %s: %w", m.path, err)
	}
	return nil
}

// Advise hints the kernel that the byte range [off, off+n) will be needed
// soon (madvise WILLNEED, rounded out to page boundaries) — used on the hot
// adjacency sections so the first queries don't fault them in one page at a
// time. Purely advisory: failures (including the snapio.map.advise fault
// point) are returned for accounting but safe to ignore.
func (m *Map) Advise(off, n int) error {
	if err := fault.Check(fault.SnapioMadviseErr); err != nil {
		return fmt.Errorf("snapshot: madvise: %w", err)
	}
	if m == nil || m.data == nil || n <= 0 || off < 0 || off >= len(m.data) {
		return nil
	}
	if off+n > len(m.data) {
		n = len(m.data) - off
	}
	// madvise requires a page-aligned base; the mapping base is page-aligned,
	// so rounding the offset down to its page suffices.
	page := os.Getpagesize()
	aligned := off - off%page
	if err := adviseWillNeed(m.data[aligned : off+n]); err != nil {
		return fmt.Errorf("snapshot: madvise: %w", err)
	}
	return nil
}

// crcBufPool recycles ChecksumFile's read buffer across opens.
var crcBufPool = sync.Pool{New: func() any {
	b := make([]byte, 1<<20)
	return &b
}}

// ChecksumFile computes the CRC-32C of a snapshot file's payload (all but
// the 4-byte trailer) and returns it alongside the recorded trailer value.
// It reads the file with plain buffered read(2) calls, never through a
// mapping: verifying a mapped snapshot this way warms the page cache
// without charging the whole file to the process's resident set, which is
// the property the mapped load path exists for.
func ChecksumFile(path string) (got, want uint32, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot: checksum: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot: checksum: %w", err)
	}
	payload := st.Size() - 4
	if payload < 0 {
		return 0, 0, fmt.Errorf("snapshot: checksum: %w", ErrTruncated)
	}
	crc := crc32.New(castagnoli)
	// One big pooled read buffer: the CRC pass is the only O(bytes) work on a
	// mapped open, so per-open costs matter — io.Copy's default 32KB chunks
	// cost more in read(2) round trips than the hashing itself on large
	// snapshots, and a fresh 1MB allocation per open is pure zeroing waste.
	buf := crcBufPool.Get().(*[]byte)
	defer crcBufPool.Put(buf)
	n, err := io.CopyBuffer(crc, io.LimitReader(f, payload), *buf)
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot: checksum: %w", err)
	}
	if n != payload {
		return 0, 0, fmt.Errorf("snapshot: checksum: %w", ErrTruncated)
	}
	var tb [4]byte
	if _, err := io.ReadFull(f, tb[:]); err != nil {
		return 0, 0, fmt.Errorf("snapshot: checksum: %w", err)
	}
	return crc.Sum32(), binary.LittleEndian.Uint32(tb[:]), nil
}
