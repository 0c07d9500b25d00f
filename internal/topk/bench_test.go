package topk

import (
	"context"
	"sync"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/obs"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
)

var (
	benchOnce  sync.Once
	benchDS    *kgsynth.Dataset
	benchSt    *storage.Store
	benchEst   *stats.Stats
	benchLats  map[string]*lattice.Lattice
	benchTups  map[string][]graph.NodeID
	benchQuery = []string{"F1", "F18"}
)

// benchFixture runs discovery for the benchmark workload queries over the
// kgsynth Freebase-like graph (seed 42) once per process; Search itself is
// what the benchmarks measure. The oracle tests reuse it (kgFixture) so they
// run against the same realistic graph.
func benchFixture(b *testing.B) {
	b.Helper()
	kgFixture()
}

func kgFixture() {
	benchOnce.Do(func() {
		ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
		st := storage.Build(ds.Graph)
		est := stats.New(st)
		benchDS, benchSt, benchEst = ds, st, est
		benchLats = make(map[string]*lattice.Lattice)
		benchTups = make(map[string][]graph.NodeID)
		for _, id := range benchQuery {
			tuple, err := ds.Tuple(ds.MustQuery(id).QueryTuple())
			if err != nil {
				panic(err)
			}
			nres, err := neighborhood.ExtractCtx(context.Background(), ds.Graph, tuple, 2)
			if err != nil {
				panic(err)
			}
			m, err := mqg.DiscoverCtx(context.Background(), est, nres.Reduced, tuple, 15)
			if err != nil {
				panic(err)
			}
			lat, err := lattice.NewCtx(context.Background(), m)
			if err != nil {
				panic(err)
			}
			benchLats[id] = lat
			benchTups[id] = tuple
		}
	})
}

// benchSearch is the end-to-end search benchmark body: one full best-first
// lattice search (Alg. 2 + Theorem 4) for a workload query, per iteration.
func benchSearch(b *testing.B, id string, opts Options) {
	benchFixture(b)
	lat, tuple := benchLats[id], benchTups[id]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SearchCtx(context.Background(), benchSt, lat, [][]graph.NodeID{tuple}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

func BenchmarkSearchF1(b *testing.B)  { benchSearch(b, "F1", Options{K: 25}) }
func BenchmarkSearchF18(b *testing.B) { benchSearch(b, "F18", Options{K: 25}) }

// BenchmarkSearchTraced is the tracing overhead guard: "off" is the plain
// search (the nil-tracer fast path every production query without -trace
// takes — BENCH_engine.json's obs section holds it within 2% of the
// pre-tracing SearchF1/F18 baselines), "on" pays for a fresh tracer, the
// per-pop eval records, and the time.Now pair around every join.
func BenchmarkSearchTraced(b *testing.B) {
	for _, id := range benchQuery {
		b.Run(id+"/off", func(b *testing.B) { benchSearch(b, id, Options{K: 25}) })
		b.Run(id+"/on", func(b *testing.B) {
			benchFixture(b)
			lat, tuple := benchLats[id], benchTups[id]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := SearchCtx(context.Background(), benchSt, lat, [][]graph.NodeID{tuple},
					Options{K: 25, Tracer: obs.New()})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Answers) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}
