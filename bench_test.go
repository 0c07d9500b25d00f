package gqbe

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section (§VI), plus micro-benchmarks for the pipeline
// stages. Each experiment bench re-runs the full driver per iteration (the
// suite's memoization is reset), so `go test -bench=.` regenerates every
// reported artifact; the internal/experiments package doc gives each
// experiment's protocol.

import (
	"context"
	"sync"
	"testing"

	"gqbe/internal/core"
	"gqbe/internal/experiments"
	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
	"gqbe/internal/topk"
)

var (
	suiteOnce sync.Once
	suiteInst *experiments.Suite
)

// benchSuite builds the shared datasets and engines once; individual
// benches reset the per-query caches so every iteration does real work.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteInst = experiments.NewSuite(kgsynth.Config{Seed: 42, Scale: 1.0}, experiments.Params{})
	})
	return suiteInst
}

func BenchmarkTableI_Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
		if len(ds.Queries) != 20 {
			b.Fatal("bad workload")
		}
	}
}

func BenchmarkTableII_CaseStudy(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.TableII(); len(r.Entries) != 3 {
			b.Fatal("bad case study")
		}
	}
}

func BenchmarkFig13_AccuracyGQBEvsNESS(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.Fig13(); len(r.PAtK) != 4 {
			b.Fatal("bad fig13")
		}
	}
}

func BenchmarkTableIII_DBpedia(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.TableIII(); len(r.Rows) != 8 {
			b.Fatal("bad table III")
		}
	}
}

func BenchmarkTableIV_UserStudy(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.TableIV(); len(r.Rows) != 20 {
			b.Fatal("bad table IV")
		}
	}
}

func BenchmarkTableV_MultiTuple(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.TableV(); len(r.Rows) != 7 {
			b.Fatal("bad table V")
		}
	}
}

func BenchmarkFig14_ProcessingTime(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.Fig14(); len(r.Rows) != 20 {
			b.Fatal("bad fig14")
		}
	}
}

func BenchmarkFig15_LatticeNodes(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.Fig15(); len(r.Rows) != 20 {
			b.Fatal("bad fig15")
		}
	}
}

func BenchmarkFig16_TwoTupleTime(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.Fig16(); len(r.Rows) != 7 {
			b.Fatal("bad fig16")
		}
	}
}

func BenchmarkTableVI_Discovery(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCache()
		if r := s.TableVI(); len(r.Rows) != 20 {
			b.Fatal("bad table VI")
		}
	}
}

// --- micro-benchmarks for the pipeline stages ---------------------------

var (
	microOnce sync.Once
	microDS   *kgsynth.Dataset
	microEng  *core.Engine
)

func microFixture(b *testing.B) (*kgsynth.Dataset, *core.Engine) {
	b.Helper()
	microOnce.Do(func() {
		microDS = kgsynth.Freebase(kgsynth.Config{Seed: 42, Scale: 1.0})
		microEng = core.NewEngine(microDS.Graph)
	})
	return microDS, microEng
}

func BenchmarkStoreBuild(b *testing.B) {
	ds, _ := microFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := storage.Build(ds.Graph)
		if st.NumEdges() != ds.Graph.NumEdges() {
			b.Fatal("bad store")
		}
	}
}

func BenchmarkNeighborhoodExtraction(b *testing.B) {
	ds, _ := microFixture(b)
	q := ds.MustQuery("F18")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := neighborhood.ExtractCtx(context.Background(), ds.Graph, tuple, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMQGDiscovery(b *testing.B) {
	ds, eng := microFixture(b)
	q := ds.MustQuery("F18")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DiscoverMQGCtx(context.Background(), tuple, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMQGMerge(b *testing.B) {
	ds, eng := microFixture(b)
	q := ds.MustQuery("F18")
	t1, _ := ds.Tuple(q.Table[0])
	t2, _ := ds.Tuple(q.Table[1])
	m1, err := eng.DiscoverMQGCtx(context.Background(), t1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m2, err := eng.DiscoverMQGCtx(context.Background(), t2, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mqg.MergeCtx(context.Background(), []*mqg.MQG{m1, m2}, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatticeSearch(b *testing.B) {
	ds, eng := microFixture(b)
	q := ds.MustQuery("F18")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		b.Fatal(err)
	}
	m, err := eng.DiscoverMQGCtx(context.Background(), tuple, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lat, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topk.SearchCtx(context.Background(), eng.Store(), lat, nil, topk.Options{K: 25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryEndToEnd(b *testing.B) {
	ds, eng := microFixture(b)
	q := ds.MustQuery("F18")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryCtx(context.Background(), tuple, core.Options{K: 25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatsWeights(b *testing.B) {
	ds, _ := microFixture(b)
	store := storage.Build(ds.Graph)
	st := stats.New(store)
	var edges []graph.Edge
	ds.Graph.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return len(edges) < 10000
	})
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		for _, e := range edges {
			total += st.Weight(e)
		}
	}
	if total < 0 {
		b.Fatal("impossible")
	}
}
