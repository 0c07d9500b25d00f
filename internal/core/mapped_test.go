package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gqbe/internal/fault"
	"gqbe/internal/kgsynth"
	"gqbe/internal/snapio"
)

// mappedFixture builds the standard engine, snapshots it to disk, and
// returns the built engine with the snapshot path.
func mappedFixture(t *testing.T) (*Engine, string) {
	t.Helper()
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	eng := NewEngine(ds.Graph)
	path := filepath.Join(t.TempDir(), "kg.snap")
	if err := eng.WriteSnapshotFile(path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	return eng, path
}

// TestOpenSnapshotMappedOracle pins the zero-copy path to the heap path
// bit-for-bit: same graph shape, same node IDs, same ranked answers with
// identical scores, same rendered names. Any divergence means the borrowed
// columns decode differently from the owned ones.
func TestOpenSnapshotMappedOracle(t *testing.T) {
	built, path := mappedFixture(t)
	heap, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	mapped, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("OpenSnapshotMapped: %v", err)
	}
	defer mapped.Close()

	if !mapped.Mapped() {
		t.Error("mapped engine does not report Mapped")
	}
	if heap.Mapped() {
		t.Error("heap engine reports Mapped")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	info := mapped.Info()
	if !info.FromSnapshot || !info.Mapped || info.MappedBytes != st.Size() {
		t.Errorf("BuildInfo = %+v, want Mapped with MappedBytes=%d", info, st.Size())
	}
	if !mapped.Graph().Borrowed() {
		t.Error("mapped graph does not report Borrowed")
	}

	if g, h := mapped.Graph(), heap.Graph(); g.NumNodes() != h.NumNodes() ||
		g.NumEdges() != h.NumEdges() || g.NumLabels() != h.NumLabels() {
		t.Fatalf("graph shape differs: mapped %v, heap %v", g, h)
	}

	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	for _, qname := range []string{"F1", "F18"} {
		q := ds.MustQuery(qname)
		tuple, err := ds.Tuple(q.QueryTuple())
		if err != nil {
			t.Fatal(err)
		}
		want, err := heap.QueryCtx(context.Background(), tuple, Options{K: 10})
		if err != nil {
			t.Fatalf("%s on heap engine: %v", qname, err)
		}
		got, err := mapped.QueryCtx(context.Background(), tuple, Options{K: 10})
		if err != nil {
			t.Fatalf("%s on mapped engine: %v", qname, err)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("%s: answers = %d, want %d", qname, len(got.Answers), len(want.Answers))
		}
		for i := range want.Answers {
			if got.Answers[i].Score != want.Answers[i].Score {
				t.Errorf("%s answer %d score = %v, want %v", qname, i,
					got.Answers[i].Score, want.Answers[i].Score)
			}
			gn, wn := mapped.AnswerNames(got.Answers[i]), heap.AnswerNames(want.Answers[i])
			for j := range wn {
				if gn[j] != wn[j] {
					t.Errorf("%s answer %d name %d = %q, want %q", qname, i, j, gn[j], wn[j])
				}
			}
		}
	}
	_ = built
}

// TestMappedAnswerNamesSurviveClose: AnswerNames clones borrowed strings, so
// a rendered answer stays valid after the mapping is gone — the property a
// hot reload relies on for responses in flight at swap time.
func TestMappedAnswerNamesSurviveClose(t *testing.T) {
	_, path := mappedFixture(t)
	mapped, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("OpenSnapshotMapped: %v", err)
	}
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	tuple, err := ds.Tuple(ds.MustQuery("F1").QueryTuple())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapped.QueryCtx(context.Background(), tuple, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	names := make([][]string, len(res.Answers))
	for i, a := range res.Answers {
		names[i] = mapped.AnswerNames(a)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !mapped.Closed() {
		t.Error("Closed() false after Close")
	}
	for _, ns := range names {
		for _, n := range ns {
			if n == "" {
				t.Fatal("empty name after unmap")
			}
			_ = len(n) + int(n[0]) // touch every string; dangling views would fault
		}
	}
	if err := mapped.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestOpenSnapshotMappedCorruptionSweep: every single-bit flip and every
// truncation must surface as a typed snapio error from the mapped open —
// never a panic, never a silently wrong engine. The CRC pass runs before
// the engine is returned, so even payload flips that would parse are
// caught.
func TestOpenSnapshotMappedCorruptionSweep(t *testing.T) {
	_, path := mappedFixture(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeBad := func(b []byte) string {
		p := filepath.Join(dir, "bad.snap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	typed := func(err error) bool {
		return errors.Is(err, snapio.ErrBadMagic) || errors.Is(err, snapio.ErrVersion) ||
			errors.Is(err, snapio.ErrChecksum) || errors.Is(err, snapio.ErrTruncated) ||
			errors.Is(err, snapio.ErrCorrupt) || errors.Is(err, snapio.ErrTooLarge)
	}

	// Bit flips at a stride through the file, plus the framing-sensitive
	// head and the CRC trailer itself.
	offsets := []int{0, 7, 8, 11, 12, len(raw) / 3, len(raw) / 2, len(raw) - 5, len(raw) - 1}
	for off := 16; off < len(raw); off += len(raw) / 61 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		if _, err := OpenSnapshotMapped(writeBad(bad)); !typed(err) {
			t.Fatalf("flip at %d: err = %v, want typed snapio error", off, err)
		}
	}

	for _, cut := range []int{0, 3, 4, 8, 10, 13, 50, len(raw) / 2, len(raw) - 4, len(raw) - 1} {
		if _, err := OpenSnapshotMapped(writeBad(raw[:cut])); !typed(err) {
			t.Fatalf("cut %d: err = %v, want typed snapio error", cut, err)
		}
	}

	// Trailing garbage shifts the trailer the CRC pass reads, so it cannot
	// verify.
	if _, err := OpenSnapshotMapped(writeBad(append(append([]byte(nil), raw...), 0xDE, 0xAD))); !typed(err) {
		t.Fatalf("trailing garbage: err = %v, want typed snapio error", err)
	}
}

// TestOpenSnapshotMappedFaults: the map fault point fails the open cleanly
// (callers fall back to the heap loader); the madvise fault point is
// advisory and the open must succeed anyway.
func TestOpenSnapshotMappedFaults(t *testing.T) {
	_, path := mappedFixture(t)

	fault.Enable(fault.Config{fault.SnapioMapErr: {Every: 1}})
	if _, err := OpenSnapshotMapped(path); !errors.Is(err, fault.ErrInjected) {
		fault.Disable()
		t.Fatalf("map fault: err = %v, want ErrInjected", err)
	}
	fault.Disable()

	fault.Enable(fault.Config{fault.SnapioMadviseErr: {Every: 1}})
	defer fault.Disable()
	eng, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("open with madvise fault: %v (the hint is advisory; the open must succeed)", err)
	}
	defer eng.Close()
	if !eng.Mapped() {
		t.Error("engine not mapped despite successful open")
	}
}

// TestHeapEngineCloseNoop: Close on a heap-built engine is a safe no-op so
// the server's generation lifecycle can treat every engine uniformly.
func TestHeapEngineCloseNoop(t *testing.T) {
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 7})
	eng := NewEngine(ds.Graph)
	if eng.Mapped() || eng.Closed() {
		t.Fatalf("fresh heap engine: Mapped=%v Closed=%v", eng.Mapped(), eng.Closed())
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !eng.Closed() {
		t.Error("Closed() false after Close")
	}
}
