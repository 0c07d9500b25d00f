package core

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gqbe/internal/kgsynth"
	"gqbe/internal/triples"
)

// Startup-path benchmarks: BENCH_engine.json records ParseBuild (the cold
// TSV parse + store build a bare daemon start pays) against SnapshotLoad
// (the heap snapshot restore path) and SnapshotLoadMapped (the zero-copy
// one). The fixture is the repo's standard kgsynth Freebase graph, rendered
// once to an in-memory TSV and snapshot so every iteration measures pure
// load work.
var (
	startupOnce sync.Once
	startupTSV  []byte
	startupSnap []byte
	startupEng  *Engine
)

func startupFixture(b *testing.B) ([]byte, []byte) {
	b.Helper()
	startupOnce.Do(func() {
		g := kgsynth.Freebase(kgsynth.Config{Seed: 42}).Graph
		var tsv bytes.Buffer
		if err := triples.Write(&tsv, g); err != nil {
			panic(err)
		}
		startupTSV = tsv.Bytes()
		startupEng = NewEngine(g)
		var snap bytes.Buffer
		if err := startupEng.WriteSnapshot(&snap); err != nil {
			panic(err)
		}
		startupSnap = snap.Bytes()
	})
	return startupTSV, startupSnap
}

// BenchmarkParseBuild is the cold startup path: parse TSV triples, intern
// names, sort adjacency, partition and index the store, compute stats.
func BenchmarkParseBuild(b *testing.B) {
	tsv, _ := startupFixture(b)
	b.SetBytes(int64(len(tsv)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := triples.LoadGraph(bytes.NewReader(tsv))
		if err != nil {
			b.Fatal(err)
		}
		eng := NewEngine(g)
		if eng.Store().NumEdges() != g.NumEdges() {
			b.Fatal("bad engine")
		}
	}
}

// BenchmarkSnapshotLoad is the warm startup path: the same engine restored
// from its binary snapshot onto the heap, skipping parsing, sorting, and
// indexing.
func BenchmarkSnapshotLoad(b *testing.B) {
	_, snap := startupFixture(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		if eng.Store().NumEdges() == 0 {
			b.Fatal("bad engine")
		}
	}
}

// BenchmarkSnapshotLoadMapped is the zero-copy startup path: the snapshot
// opened through OpenSnapshotMapped, which verifies the CRC with buffered
// reads and then borrows every column straight out of the mapping. The
// fixture lives on disk (mmap needs a file); after the first iteration the
// file is page-cache hot, which matches the serving reality this path is
// for — restarts and hot reloads on a box already running the daemon.
func BenchmarkSnapshotLoadMapped(b *testing.B) {
	_, snap := startupFixture(b)
	path := filepath.Join(b.TempDir(), "bench.snap")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := OpenSnapshotMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if eng.Store().NumEdges() == 0 {
			b.Fatal("bad engine")
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// 10×-scale fixture for the production-shape startup comparison: the same
// three load paths over a kgsynth graph with domains scaled 10× (~88k nodes,
// ~156k edges, ~9.7MB snapshot). At this size the asymptotics separate —
// ParseBuild and SnapshotLoad are O(bytes) work per open while the mapped
// open is O(sections) parse + one CRC pass over page-cache-hot bytes — and
// these rows back the startup SLO in BENCH_engine.json.
var (
	startup10Once sync.Once
	startup10TSV  []byte
	startup10Snap []byte
)

func startup10Fixture(b *testing.B) ([]byte, []byte) {
	b.Helper()
	startup10Once.Do(func() {
		g := kgsynth.Freebase(kgsynth.Config{Seed: 42, Scale: 10}).Graph
		var tsv bytes.Buffer
		if err := triples.Write(&tsv, g); err != nil {
			panic(err)
		}
		startup10TSV = tsv.Bytes()
		var snap bytes.Buffer
		if err := NewEngine(g).WriteSnapshot(&snap); err != nil {
			panic(err)
		}
		startup10Snap = snap.Bytes()
	})
	return startup10TSV, startup10Snap
}

func BenchmarkParseBuild10x(b *testing.B) {
	tsv, _ := startup10Fixture(b)
	b.SetBytes(int64(len(tsv)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := triples.LoadGraph(bytes.NewReader(tsv))
		if err != nil {
			b.Fatal(err)
		}
		eng := NewEngine(g)
		if eng.Store().NumEdges() != g.NumEdges() {
			b.Fatal("bad engine")
		}
	}
}

func BenchmarkSnapshotLoad10x(b *testing.B) {
	_, snap := startup10Fixture(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		if eng.Store().NumEdges() == 0 {
			b.Fatal("bad engine")
		}
	}
}

func BenchmarkSnapshotLoadMapped10x(b *testing.B) {
	_, snap := startup10Fixture(b)
	path := filepath.Join(b.TempDir(), "bench10.snap")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := OpenSnapshotMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if eng.Store().NumEdges() == 0 {
			b.Fatal("bad engine")
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotWrite measures serialization, for operators deciding
// whether -snapshot-write belongs in their restart path.
func BenchmarkSnapshotWrite(b *testing.B) {
	_, snap := startupFixture(b)
	eng := startupEng
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := eng.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
