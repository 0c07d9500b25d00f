package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gqbe/internal/kgsynth"
	"gqbe/internal/snapio"
)

func snapshotEngine(t *testing.T) (*Engine, []byte) {
	t.Helper()
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	eng := NewEngine(ds.Graph)
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return eng, buf.Bytes()
}

// TestEngineSnapshotRoundTrip: a query on the loaded engine returns exactly
// the answers of the built engine.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	eng := NewEngine(ds.Graph)
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !loaded.Info().FromSnapshot {
		t.Error("loaded engine does not report FromSnapshot")
	}
	q := ds.MustQuery("F1")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.QueryCtx(context.Background(), tuple, Options{K: 10})
	if err != nil {
		t.Fatalf("query on built engine: %v", err)
	}
	// Node IDs are preserved by the snapshot, so the same tuple resolves
	// identically by name on the loaded engine.
	for i, name := range q.QueryTuple() {
		id, ok := loaded.Graph().Node(name)
		if !ok {
			t.Fatalf("loaded graph misses entity %q", name)
		}
		if id != tuple[i] {
			t.Fatalf("entity %q: id %d in loaded graph, %d in source", name, id, tuple[i])
		}
	}
	got, err := loaded.QueryCtx(context.Background(), tuple, Options{K: 10})
	if err != nil {
		t.Fatalf("query on loaded engine: %v", err)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if got.Answers[i].Score != want.Answers[i].Score {
			t.Errorf("answer %d score = %v, want %v", i, got.Answers[i].Score, want.Answers[i].Score)
		}
		for j := range want.Answers[i].Tuple {
			if got.Answers[i].Tuple[j] != want.Answers[i].Tuple[j] {
				t.Errorf("answer %d entity %d = %d, want %d", i, j,
					got.Answers[i].Tuple[j], want.Answers[i].Tuple[j])
			}
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	eng, _ := snapshotEngine(t)
	path := filepath.Join(t.TempDir(), "kg.snap")
	if err := eng.WriteSnapshotFile(path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if loaded.Graph().NumEdges() != eng.Graph().NumEdges() {
		t.Errorf("edges = %d, want %d", loaded.Graph().NumEdges(), eng.Graph().NumEdges())
	}
	if info := loaded.Info(); !info.FromSnapshot || info.Duration <= 0 {
		t.Errorf("BuildInfo = %+v, want FromSnapshot with positive duration", info)
	}
	// No stray temp files left beside the snapshot.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("snapshot dir has %d entries, want 1 (temp file leaked?)", len(entries))
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	_, raw := snapshotEngine(t)
	bad := append([]byte("NOTASNAP"), raw[8:]...)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, snapio.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSnapshotWrongVersion(t *testing.T) {
	_, raw := snapshotEngine(t)
	bad := bytes.Clone(raw)
	bad[8] = 99 // version field is the u32 after the 8-byte magic
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, snapio.ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestSnapshotChecksumMismatch(t *testing.T) {
	_, raw := snapshotEngine(t)
	bad := bytes.Clone(raw)
	// Flip one bit deep in the column payload: sections still parse, the
	// checksum must catch it.
	bad[len(bad)/2] ^= 0x40
	_, err := ReadSnapshot(bytes.NewReader(bad))
	if err == nil {
		t.Fatal("corrupted snapshot loaded cleanly")
	}
	if !errors.Is(err, snapio.ErrChecksum) && !errors.Is(err, snapio.ErrCorrupt) && !errors.Is(err, snapio.ErrTruncated) {
		t.Fatalf("err = %v, want a typed snapshot error", err)
	}
}

func TestSnapshotTruncatedFile(t *testing.T) {
	_, raw := snapshotEngine(t)
	for _, cut := range []int{0, 4, 8, 10, 50, len(raw) / 2, len(raw) - 2} {
		_, err := ReadSnapshot(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut %d: truncated snapshot loaded cleanly", cut)
		}
		if !errors.Is(err, snapio.ErrTruncated) && !errors.Is(err, snapio.ErrCorrupt) && !errors.Is(err, snapio.ErrBadMagic) {
			t.Fatalf("cut %d: err = %v, want typed", cut, err)
		}
	}
}

// TestSnapshotTrailingGarbage: bytes after the checksum trailer are damage
// the CRC cannot see (concatenated or padded files) and must be rejected.
func TestSnapshotTrailingGarbage(t *testing.T) {
	_, raw := snapshotEngine(t)
	bad := append(bytes.Clone(raw), 0xDE, 0xAD)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestLoadSnapshotFileMissing(t *testing.T) {
	if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("missing snapshot loaded cleanly")
	}
}
