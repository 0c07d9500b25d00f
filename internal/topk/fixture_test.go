package topk

import (
	"context"
	"sync"

	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
)

var (
	kgOnce  sync.Once
	kgDS    *kgsynth.Dataset
	kgSt    *storage.Store
	kgEst   *stats.Stats
	kgLats  map[string]*lattice.Lattice
	kgTups  map[string][]graph.NodeID
	kgQuery = []string{"F1", "F18"}
)

// kgFixture builds the kgsynth Freebase-like graph (seed 42) and runs
// discovery for the queries in kgQuery once per process, so the oracle and
// golden tests run against the same realistic graph.
func kgFixture() {
	kgOnce.Do(func() {
		ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
		st := storage.Build(ds.Graph)
		est := stats.New(st)
		kgDS, kgSt, kgEst = ds, st, est
		kgLats = make(map[string]*lattice.Lattice)
		kgTups = make(map[string][]graph.NodeID)
		for _, id := range kgQuery {
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
			kgLats[id] = lat
			kgTups[id] = tuple
		}
	})
}
