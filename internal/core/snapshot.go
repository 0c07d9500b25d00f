// Engine snapshots: the fully preprocessed state — data graph plus the
// indexed vertical-partition store — serialized to one versioned binary
// file, so a daemon restart skips triple parsing, name interning from text,
// pair sorting and index construction entirely and instead streams flat
// int32 columns straight into the arena slices.
//
// File layout:
//
//	[8]byte magic "GQBESNAP"
//	u32     format version (2 unsharded, 3 sharded)
//	graph section   (internal/graph.AppendSnapshot)
//	store section   (internal/storage.AppendSnapshot)
//	shard section   (v3 only: u32 index, u32 count, string scheme)
//	u32     CRC-32C of every preceding byte
//
// Version 2 pads every string blob to a 4-byte boundary and drops the
// redundant sparse-subject key column, so every int32 column sits 4-aligned
// relative to the file start. That is what makes the mapped open
// (OpenSnapshotMapped) zero-copy: columns are reinterpreted in place rather
// than decoded, and the engine's arenas borrow the mapping.
//
// Version 3 is v2 plus a trailing shard section giving the engine a fleet
// shard identity (cmd/kgshard writes these). An unsharded engine still
// writes v2 byte for byte, so sharding changes nothing for existing
// snapshots; every loader accepts either version and an engine loaded from
// a v3 file adopts the recorded identity.
//
// Every loader decodes with the same function, parseSnapshot, over bytes in
// memory: the heap loaders (ReadSnapshot, LoadSnapshotFile) read the whole
// input first, the mapped open (OpenSnapshotMapped) maps it. Columns are
// views of those bytes either way. The checksum is verified before the
// engine is returned — over the owned bytes, or via one buffered read pass
// (snapio.ChecksumFile) for a mapping — so a torn write or bit rot surfaces
// as snapio.ErrChecksum rather than a subtly wrong graph. All corruption is
// reported through the typed snapio errors — never a panic.
package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gqbe/internal/graph"
	"gqbe/internal/snapio"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
	"gqbe/internal/topk"
)

// snapshotMagic identifies an engine snapshot file.
var snapshotMagic = [8]byte{'G', 'Q', 'B', 'E', 'S', 'N', 'A', 'P'}

// SnapshotVersion is the current snapshot format version for unsharded
// engines. Readers reject anything but it and SnapshotVersionShard with
// snapio.ErrVersion. v2 aligns all columns for the zero-copy decoder; v1
// files must be rebuilt.
const SnapshotVersion = 2

// SnapshotVersionShard is the format version of a shard snapshot: v2 plus a
// trailing shard-identity section. WriteSnapshot selects it automatically
// for engines with a shard identity (WithShard).
const SnapshotVersionShard = 3

// WriteSnapshot serializes the engine's preprocessed state to w. Engines
// carrying a shard identity write format v3 (the identity travels with the
// data so a daemon booting from the file serves the right answer slice);
// unsharded engines write v2, byte-identical to previous releases.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := snapio.NewWriter(bw)
	sw.Raw(snapshotMagic[:])
	if e.shardCount > 1 {
		sw.U32(SnapshotVersionShard)
	} else {
		sw.U32(SnapshotVersion)
	}
	if err := e.g.AppendSnapshot(sw); err != nil {
		return err
	}
	if err := e.store.AppendSnapshot(sw); err != nil {
		return err
	}
	if e.shardCount > 1 {
		sw.U32(uint32(e.shardIndex))
		sw.U32(uint32(e.shardCount))
		sw.String(topk.ShardScheme)
	}
	sw.RawU32(sw.Sum32())
	if err := sw.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot deserializes an engine from r, verifying the checksum before
// returning it. The whole input is read onto the heap and decoded in place.
func ReadSnapshot(r io.Reader) (*Engine, error) {
	start := time.Now()
	data, err := snapio.ReadAll(r)
	if err != nil {
		return nil, err
	}
	e, err := parseSnapshot(data, nil)
	if err != nil {
		return nil, err
	}
	e.info = BuildInfo{Duration: time.Since(start), FromSnapshot: true}
	return e, nil
}

// WriteSnapshotFile writes the engine snapshot atomically: to a temp file
// in the target directory, fsynced, then renamed over path.
func (e *Engine) WriteSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	// CreateTemp's 0600 would survive the rename; snapshots are ordinary
	// data files, so give them the usual umask-filtered mode.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := e.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// LoadSnapshotFile reads an engine snapshot from path onto the heap.
func LoadSnapshotFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	e, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	return e, nil
}

// OpenSnapshotMapped opens an engine over a memory-mapped snapshot file.
// The graph's name blob and every int32 column (adjacency, store tables)
// borrow the mapping instead of living on the heap, so the open costs
// O(sections) allocations and the data pages are shared with the page
// cache — N replicas of the same snapshot pay for its resident pages once.
//
// Integrity matches the heap loader: the same framing and shape checks run
// during parsing, and the CRC-32C trailer is verified over the whole
// payload before the engine is returned (one buffered read pass that also
// warms the page cache), so corruption surfaces as the typed snapio errors.
// The O(bytes) interior scans the heap loader runs are skipped: they would
// fault every column into memory, and the CRC is the trust boundary.
//
// The returned engine holds the mapping until Close; the caller must
// guarantee no query is in flight when it closes (the server's generation
// refcounting does this). On platforms without mmap, OpenMap fails with
// snapio.ErrMapUnsupported and callers fall back to LoadSnapshotFile.
func OpenSnapshotMapped(path string) (*Engine, error) {
	start := time.Now()
	m, err := snapio.OpenMap(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	e, err := parseSnapshot(m.Data(), m)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	e.info = BuildInfo{
		Duration:     time.Since(start),
		FromSnapshot: true,
		Mapped:       true,
		MappedBytes:  int64(m.Len()),
	}
	return e, nil
}

// parseSnapshot decodes and verifies a whole snapshot held in memory:
// owned bytes the heap loaders read (m nil), or the mapping m (data is
// m.Data()), which the returned engine then borrows. The caller closes m
// on error.
func parseSnapshot(data []byte, m *snapio.Map) (*Engine, error) {
	sr := snapio.NewView(data)
	if m != nil {
		sr = m.View()
	}
	var magic [8]byte
	sr.Raw(magic[:])
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: got % x", snapio.ErrBadMagic, magic[:])
	}
	version := sr.U32()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	sharded := version == SnapshotVersionShard
	if version != SnapshotVersion && !sharded {
		return nil, fmt.Errorf("%w: file is v%d, this binary reads v%d/v%d",
			snapio.ErrVersion, version, SnapshotVersion, SnapshotVersionShard)
	}
	g, err := graph.ReadSnapshot(sr)
	if err != nil {
		return nil, err
	}
	store, err := storage.ReadSnapshot(sr)
	if err != nil {
		return nil, err
	}
	e := &Engine{g: g, store: store, m: m}
	if sharded {
		e.shardIndex = int(sr.U32())
		e.shardCount = int(sr.U32())
		scheme := sr.String()
		if err := sr.Err(); err != nil {
			return nil, err
		}
		if scheme != topk.ShardScheme {
			return nil, fmt.Errorf("%w: shard scheme %q, this binary merges %q",
				snapio.ErrCorrupt, scheme, topk.ShardScheme)
		}
		if e.shardCount < 2 || e.shardIndex < 0 || e.shardIndex >= e.shardCount {
			return nil, fmt.Errorf("%w: shard identity %d/%d", snapio.ErrCorrupt, e.shardIndex, e.shardCount)
		}
	}
	sr.U32() // the CRC trailer, verified below
	if err := sr.Err(); err != nil {
		return nil, err
	}
	// The trailer must end the input: bytes after it are damage the CRC
	// cannot see (a concatenated or padded file), not a valid snapshot.
	if sr.Remaining() != 0 {
		return nil, fmt.Errorf("%w: data after checksum trailer", snapio.ErrCorrupt)
	}
	// ChecksumFile reads the file with plain read(2), never through the
	// mapping, so verifying a mapped snapshot does not charge the file to
	// this process's RSS.
	var got, want uint32
	if m != nil {
		got, want, err = snapio.ChecksumFile(m.Path())
	} else {
		got, want, err = snapio.Checksum(data)
	}
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("%w: recorded %08x, computed %08x", snapio.ErrChecksum, want, got)
	}
	e.stats = stats.New(store)
	if m != nil {
		// Prefetch the hot adjacency sections so the first queries don't
		// fault them in one page at a time. Purely advisory — a failure
		// (including the snapio.map.advise fault point) costs readahead, not
		// correctness.
		if aStart, aEnd := g.AdjacencyRange(); aEnd > aStart {
			_ = m.Advise(int(aStart), int(aEnd-aStart))
		}
	}
	return e, nil
}
