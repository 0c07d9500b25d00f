package snapio

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// hostLittleEndian reports whether the running host stores integers
// little-endian — the precondition for reinterpreting mapped file bytes as
// []int32 without a byte-order swap.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ViewReader decodes snapshot values directly from an in-memory byte
// slice: a whole snapshot read onto the heap (ReadAll) or an mmap'd file
// (Map.View). Columns and string blobs are handed out as zero-copy views of
// the slice, so decoding allocates O(sections), not O(bytes); the caller
// owns keeping the backing memory alive and unmodified for as long as any
// decoded value is reachable.
//
// Every length is checked against the bytes actually present before
// anything is sliced or allocated, so a corrupt prefix costs ErrTruncated
// or ErrCorrupt, never a giant allocation. A ViewReader keeps no running
// CRC: callers verify the file's CRC-32C trailer once (Checksum over owned
// bytes, ChecksumFile for a mapping). On a big-endian host, or over a
// misaligned buffer, columns fall back to decoded heap copies; the format
// stays readable everywhere.
type ViewReader struct {
	data []byte
	pos  int
	// copyCols forces i32col to decode-copy instead of reinterpret: set on
	// big-endian hosts and for buffers whose base is not 4-byte aligned
	// (mmap bases are page-aligned, but tests may view arbitrary slices).
	copyCols bool
	// mapped is set by Map.View: the bytes are a read-only file mapping.
	mapped bool
	err    error
}

// NewView returns a ViewReader over owned bytes.
func NewView(data []byte) *ViewReader {
	misaligned := uintptr(unsafe.Pointer(unsafe.SliceData(data)))&3 != 0
	return &ViewReader{data: data, copyCols: !hostLittleEndian || misaligned}
}

// Err returns the first error encountered, or nil.
func (v *ViewReader) Err() error { return v.err }

// Fail records a decoding error discovered by the caller; the first one
// sticks.
func (v *ViewReader) Fail(err error) {
	if v.err == nil {
		v.err = err
	}
}

// Mapped reports whether the bytes are a file mapping rather than owned
// heap memory. Section decoders use it to skip the O(bytes) interior scans
// on a mapping, whose CRC-32C is the trust boundary and whose pages a scan
// would fault into the resident set; owned bytes are already resident, so
// they keep every check. Values decoded from a mapping must not outlive it.
func (v *ViewReader) Mapped() bool { return v.mapped }

// Pos returns the current decode offset in bytes.
func (v *ViewReader) Pos() int64 { return int64(v.pos) }

// Remaining returns the number of bytes not yet consumed.
func (v *ViewReader) Remaining() int { return len(v.data) - v.pos }

// take advances past the next n bytes and returns them as a capped view,
// failing with ErrTruncated when the buffer is short.
func (v *ViewReader) take(n int) []byte {
	if v.err != nil {
		return nil
	}
	if n < 0 || n > len(v.data)-v.pos {
		v.Fail(ErrTruncated)
		return nil
	}
	b := v.data[v.pos : v.pos+n : v.pos+n]
	v.pos += n
	return b
}

// Raw copies the next len(p) bytes into p — fixed framing such as the file
// magic.
func (v *ViewReader) Raw(p []byte) {
	if b := v.take(len(p)); b != nil {
		copy(p, b)
	}
}

// U32 reads a little-endian uint32.
func (v *ViewReader) U32() uint32 {
	b := v.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (v *ViewReader) U64() uint64 {
	b := v.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (v *ViewReader) I32() int32 { return int32(v.U32()) }

// Len reads a length prefix, failing with ErrCorrupt past the sanity
// bound.
func (v *ViewReader) Len() int {
	n := v.U32()
	if v.err != nil {
		return 0
	}
	if uint64(n) >= MaxElems {
		v.Fail(fmt.Errorf("%w: implausible length %d", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string as a zero-copy view of the buffer.
func (v *ViewReader) String() string {
	n := v.Len()
	if v.err != nil || n == 0 {
		return ""
	}
	b := v.take(n)
	if b == nil {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Align4 consumes the zero padding up to the next 4-byte boundary, failing
// with ErrCorrupt on nonzero pad bytes.
func (v *ViewReader) Align4() {
	pad := int(-int64(v.pos) & 3)
	if pad == 0 {
		return
	}
	b := v.take(pad)
	for _, c := range b {
		if c != 0 {
			v.Fail(fmt.Errorf("%w: nonzero alignment padding", ErrCorrupt))
			return
		}
	}
}

// i32col returns the next n column elements as a zero-copy reinterpretation
// of the input bytes (or a decoded copy on hosts where the cast is
// unsound). Writers pad every blob back to a 4-byte boundary, so a column
// starting misaligned is framing corruption, not a casting opportunity.
func (v *ViewReader) i32col(n int) []int32 {
	if v.err != nil {
		return nil
	}
	if v.pos&3 != 0 {
		v.Fail(fmt.Errorf("%w: column misaligned at offset %d", ErrCorrupt, v.pos))
		return nil
	}
	if n > (len(v.data)-v.pos)/4 {
		v.Fail(ErrTruncated)
		return nil
	}
	b := v.take(4 * n)
	if b == nil || n == 0 {
		return nil
	}
	if v.copyCols {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// ReadI32Col reads a length-prefixed flat column written by I32Col, as any
// int32-typed element (graph.NodeID, graph.LabelID, int32 offsets): a
// zero-copy view of the input where the host allows the cast.
func ReadI32Col[T ~int32](v *ViewReader) []T {
	n := v.Len()
	if v.Err() != nil || n == 0 {
		return nil
	}
	xs := v.i32col(n)
	if xs == nil {
		return nil
	}
	// []int32 and []T share layout exactly (T ~int32); reinterpreting the
	// header avoids an O(n) copy per column.
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
}
