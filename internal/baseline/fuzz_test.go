package baseline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
	"gqbe/internal/topk"
)

// randomGraph builds a seeded graph of at most 40 nodes and 6 labels. About
// a third of the edge endpoints are one of two hubs, so label tables have
// skewed posting lists and joins fan out as they do on real graphs.
func randomGraph(seed int64, nodes, labels, edges uint8) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(nodes)%39
	nl := 1 + int(labels)%6
	ne := n + int(edges)%(3*n)
	node := func() string {
		if rng.Intn(3) == 0 {
			return fmt.Sprintf("n%d", rng.Intn(2))
		}
		return fmt.Sprintf("n%d", rng.Intn(n))
	}
	g := graph.New()
	for i := 0; i < ne; i++ {
		g.AddEdge(node(), fmt.Sprintf("l%d", rng.Intn(nl)), node())
	}
	g.SortAdjacency()
	return g
}

// FuzzSearchVsBaseline is a differential test of the best-first search
// against the breadth-first baseline on random graphs and 1–2-entity query
// tuples. With K and KPrime above any possible tuple count the Theorem-4
// test never fires, so both traversals must reach every unpruned lattice
// node and return the same answer tuples with the same score bits. A small
// row budget bounds each input's work; an input on which either traversal
// skips a node for it is not compared, since which nodes trip the budget
// depends on the join path each traversal takes. Answer
// order may differ only among equal scores, and BestGraph may differ among
// equal structure scores, so neither is compared.
func FuzzSearchVsBaseline(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(20), uint8(0))
	f.Add(int64(2), uint8(20), uint8(2), uint8(50), uint8(1))
	f.Add(int64(3), uint8(38), uint8(5), uint8(90), uint8(1))
	f.Add(int64(4), uint8(8), uint8(1), uint8(15), uint8(1))
	f.Add(int64(5), uint8(30), uint8(6), uint8(60), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, labels, edges, arity uint8) {
		g := randomGraph(seed, nodes, labels, edges)
		// The tuple's entities are a random data edge's endpoints (or its
		// source), so the tuple is connected.
		rng := rand.New(rand.NewSource(seed))
		var tuple []graph.NodeID
		g.Edges(func(e graph.Edge) bool {
			if e.Src == e.Dst {
				return true
			}
			if tuple = []graph.NodeID{e.Src}; arity%2 == 1 {
				tuple = append(tuple, e.Dst)
			}
			return rng.Intn(4) != 0
		})
		if tuple == nil {
			t.Skip("no edge between distinct nodes")
		}
		ctx := context.Background()
		store := storage.Build(g)
		nres, err := neighborhood.ExtractCtx(ctx, g, tuple, 2)
		if err != nil {
			t.Skip(err)
		}
		m, err := mqg.DiscoverCtx(ctx, stats.New(store), nres.Reduced, tuple, 8)
		if err != nil {
			t.Skip(err)
		}
		lat, err := lattice.NewCtx(ctx, m)
		if err != nil {
			t.Skip(err)
		}
		exclude := [][]graph.NodeID{tuple}
		const all, maxRows = 1 << 12, 20_000 // all is above 40² tuples
		gres, err := topk.SearchCtx(ctx, store, lat, exclude, topk.Options{K: all, KPrime: all, MaxRows: maxRows})
		if err != nil {
			t.Fatalf("topk: %v", err)
		}
		bres, err := Search(store, lat, exclude, Options{K: all, KPrime: all, MaxRows: maxRows})
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		if gres.RowBudgetSkips > 0 || bres.RowBudgetSkips > 0 {
			t.Skip("a lattice node exceeds the row budget")
		}
		if bres.Truncated {
			t.Fatal("baseline hit its evaluation cap")
		}
		if gres.Stopped != topk.StopExhausted {
			t.Fatalf("topk stopped %q with every tuple wanted", gres.Stopped)
		}
		type scores struct{ full, s uint64 }
		want := make(map[string]scores, len(bres.Answers))
		for _, a := range bres.Answers {
			want[key(a.Tuple)] = scores{math.Float64bits(a.Score), math.Float64bits(a.SScore)}
		}
		if len(gres.Answers) != len(want) {
			t.Fatalf("topk found %d tuples, baseline %d", len(gres.Answers), len(want))
		}
		for _, a := range gres.Answers {
			got := scores{math.Float64bits(a.Score), math.Float64bits(a.SScore)}
			if w, ok := want[key(a.Tuple)]; !ok || w != got {
				t.Errorf("tuple %v: topk scores %v/%v, baseline has %v (found %v)",
					a.Tuple, a.Score, a.SScore, w, ok)
			}
		}
	})
}
