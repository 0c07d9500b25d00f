package storage

import (
	"sync"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
)

var (
	benchOnce  sync.Once
	benchGraph *graph.Graph
	benchStore *Store
)

// benchFixture builds the kgsynth Freebase-like graph (seed 42 — the repo's
// standard benchmark graph) and its store once per process.
func benchFixture(b *testing.B) (*graph.Graph, *Store) {
	b.Helper()
	benchOnce.Do(func() {
		benchGraph = kgsynth.Freebase(kgsynth.Config{Seed: 42}).Graph
		benchStore = Build(benchGraph)
	})
	return benchGraph, benchStore
}

// BenchmarkStoreBuild measures the offline hashing phase: the whole data
// graph partitioned and indexed. BENCH_engine.json tracks it because the
// index layout dominates both build allocations and probe locality.
func BenchmarkStoreBuild(b *testing.B) {
	g, _ := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Build(g)
		if s.NumEdges() != g.NumEdges() {
			b.Fatal("bad store")
		}
	}
}

// BenchmarkStoreProbe measures the join executor's inner loop: posting-list
// probes (Objects/Subjects), existence checks (Has), and degree lookups,
// over every edge of every label table.
func BenchmarkStoreProbe(b *testing.B) {
	g, s := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for l := 0; l < g.NumLabels(); l++ {
			t := s.MustTable(graph.LabelID(l))
			for _, p := range allPairs(t) {
				sink += len(t.Objects(p.Subj))
				sink += len(t.Subjects(p.Obj))
				if t.Has(p.Subj, p.Obj) {
					sink++
				}
				sink += t.OutDegree(p.Subj) + t.InDegree(p.Obj)
			}
		}
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkStoreProbeMisses measures probes that find nothing: nodes with no
// edges under the probed label. Hash-map misses and array-range misses have
// very different costs, and join fan-out probes miss constantly.
func BenchmarkStoreProbeMisses(b *testing.B) {
	g, s := benchFixture(b)
	// Label 0's table probed with every node: most have no label-0 edges.
	t := s.MustTable(0)
	n := graph.NodeID(g.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for v := graph.NodeID(0); v < n; v++ {
			sink += len(t.Objects(v)) + t.InDegree(v)
		}
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}
