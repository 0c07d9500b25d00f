package storage

import (
	"bytes"
	"errors"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/snapio"
)

// storeBytes serializes a store; byte equality of sections is the oracle
// for a byte-stable round trip.
func storeBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	if err := s.AppendSnapshot(w); err != nil {
		t.Fatalf("AppendSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestStoreSnapshotRoundTrip: a loaded store must probe identically to the
// built one — same postings, degrees, and existence answers on every row,
// and byte-stable when written again.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	g := kgsynth.Freebase(kgsynth.Config{Seed: 42}).Graph
	built := Build(g)
	raw := storeBytes(t, built)
	loaded, err := ReadSnapshot(snapio.NewView(raw))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if loaded.NumEdges() != built.NumEdges() || loaded.NumLabels() != built.NumLabels() {
		t.Fatalf("shape = (%d,%d), want (%d,%d)",
			loaded.NumEdges(), loaded.NumLabels(), built.NumEdges(), built.NumLabels())
	}
	for l := 0; l < built.NumLabels(); l++ {
		a, b := built.MustTable(graph.LabelID(l)), loaded.MustTable(graph.LabelID(l))
		if a.Len() != b.Len() {
			t.Fatalf("table %d: len %d vs %d", l, a.Len(), b.Len())
		}
		for _, p := range allPairs(a) {
			ao, bo := a.Objects(p.Subj), b.Objects(p.Subj)
			if len(ao) != len(bo) {
				t.Fatalf("table %d Objects(%d): %d vs %d", l, p.Subj, len(ao), len(bo))
			}
			for i := range ao {
				if ao[i] != bo[i] {
					t.Fatalf("table %d Objects(%d)[%d]: %d vs %d", l, p.Subj, i, ao[i], bo[i])
				}
			}
			if a.InDegree(p.Obj) != b.InDegree(p.Obj) || a.OutDegree(p.Subj) != b.OutDegree(p.Subj) {
				t.Fatalf("table %d degree mismatch at (%d,%d)", l, p.Subj, p.Obj)
			}
			if !b.Has(p.Subj, p.Obj) {
				t.Fatalf("table %d loaded store misses row (%d,%d)", l, p.Subj, p.Obj)
			}
		}
	}
	if again := storeBytes(t, loaded); !bytes.Equal(raw, again) {
		t.Error("store snapshot not byte-stable across a round trip")
	}
}

// TestStoreSnapshotTruncated: every truncation fails with a typed error.
func TestStoreSnapshotTruncated(t *testing.T) {
	g := kgsynth.Freebase(kgsynth.Config{Seed: 42}).Graph
	raw := storeBytes(t, Build(g))
	for _, cut := range []int{0, 1, 4, 11, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		_, err := ReadSnapshot(snapio.NewView(raw[:cut]))
		if !errors.Is(err, snapio.ErrTruncated) && !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated/ErrCorrupt", cut, err)
		}
	}
}

// TestStoreSnapshotCorruptShape: a row-count total that disagrees with the
// header is ErrCorrupt.
func TestStoreSnapshotCorruptShape(t *testing.T) {
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	w.U32(1)   // one table
	w.U64(999) // claims 999 edges
	w.U32(0)   // sparse both ways
	for i := 0; i < 5; i++ {
		snapio.I32Col(w, []int32(nil)) // all columns empty
	}
	_, err := ReadSnapshot(snapio.NewView(buf.Bytes()))
	if !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
