package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gqbe"
	"gqbe/internal/fleet"
	"gqbe/internal/kgsynth"
	"gqbe/internal/triples"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42, Scale: 0.25})
	path := filepath.Join(t.TempDir(), "kg.tsv")
	if err := triples.WriteStreamFile(path, ds.Graph); err != nil {
		t.Fatal(err)
	}
	return path
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestKGShardGolden: partitioning the same input twice yields
// byte-identical shard snapshots and manifest.
func TestKGShardGolden(t *testing.T) {
	graph := writeTestGraph(t)
	base := t.TempDir()
	if err := run(graph, "", 2, filepath.Join(base, "a")); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := readDir(t, filepath.Join(base, "a"))
	if len(want) != 3 { // shard-0.snap, shard-1.snap, fleet.json
		t.Fatalf("fleet dir has %d files, want 3: %v", len(want), want)
	}
	out := filepath.Join(base, "again")
	if err := run(graph, "", 2, out); err != nil {
		t.Fatalf("second run: %v", err)
	}
	got := readDir(t, out)
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s differs between two cuts of the same input", name)
		}
	}
}

// TestKGShardOutputsLoad: each cut shard loads as an engine with the right
// identity, the manifest validates, and its CRCs match the files.
func TestKGShardOutputsLoad(t *testing.T) {
	graph := writeTestGraph(t)
	out := t.TempDir()
	if err := run(graph, "", 2, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	m, err := fleet.Load(filepath.Join(out, "fleet.json"))
	if err != nil {
		t.Fatalf("fleet.Load: %v", err)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("manifest has %d shards, want 2", len(m.Shards))
	}
	for _, s := range m.Shards {
		eng, err := gqbe.LoadSnapshotFile(filepath.Join(out, s.Path))
		if err != nil {
			t.Fatalf("shard %d: %v", s.Index, err)
		}
		if i, n := eng.Shard(); i != s.Index || n != 2 {
			t.Errorf("shard %d loads with identity %d/%d", s.Index, i, n)
		}
		if eng.NumEntities() != s.Entities || eng.NumFacts() != s.Facts {
			t.Errorf("shard %d: graph shape %d/%d, manifest says %d/%d",
				s.Index, eng.NumEntities(), eng.NumFacts(), s.Entities, s.Facts)
		}
	}
}

// TestKGShardSingleShard: -shards 1 degenerates to a plain (v2, unsharded)
// snapshot plus a one-entry manifest — a valid single-node "fleet".
func TestKGShardSingleShard(t *testing.T) {
	graph := writeTestGraph(t)
	out := t.TempDir()
	if err := run(graph, "", 1, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	eng, err := gqbe.LoadSnapshotFile(filepath.Join(out, "shard-0.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if _, n := eng.Shard(); n != 0 {
		t.Errorf("single-shard cut has shard identity count=%d, want unsharded", n)
	}
}

// TestKGShardFromSnapshot: cutting from a prebuilt snapshot equals cutting
// from the triples it was built from.
func TestKGShardFromSnapshot(t *testing.T) {
	graph := writeTestGraph(t)
	base := t.TempDir()
	eng, err := gqbe.LoadFile(graph)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(base, "kg.snap")
	if err := eng.WriteSnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	fromGraph, fromSnap := filepath.Join(base, "g"), filepath.Join(base, "s")
	if err := run(graph, "", 2, fromGraph); err != nil {
		t.Fatal(err)
	}
	if err := run("", snap, 2, fromSnap); err != nil {
		t.Fatal(err)
	}
	want, got := readDir(t, fromGraph), readDir(t, fromSnap)
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s differs between -graph and -snapshot cuts", name)
		}
	}
}

func TestKGShardFlagValidation(t *testing.T) {
	out := t.TempDir()
	if err := run("", "", 2, out); err == nil {
		t.Error("run with neither input accepted")
	}
	if err := run("a.tsv", "b.snap", 2, out); err == nil {
		t.Error("run with both inputs accepted")
	}
	if err := run("a.tsv", "", 0, out); err == nil {
		t.Error("run with zero shards accepted")
	}
	if err := run("a.tsv", "", 2, ""); err == nil {
		t.Error("run with no out dir accepted")
	}
}
