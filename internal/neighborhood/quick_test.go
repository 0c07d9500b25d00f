package neighborhood

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gqbe/internal/graph"
	"gqbe/internal/testkg"
)

// randomCase builds a small random data graph over three labels, self-loops
// included, and a tuple of one to three distinct entities.
func randomCase(r *rand.Rand) (*graph.Graph, []graph.NodeID) {
	g := graph.New()
	n := 3 + r.Intn(7)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	labels := []graph.LabelID{g.AddLabel("l"), g.AddLabel("m"), g.AddLabel("o")}
	for i, m := 0, 2+r.Intn(2*n); i < m; i++ {
		g.AddEdgeIDs(graph.NodeID(r.Intn(n)), labels[r.Intn(len(labels))], graph.NodeID(r.Intn(n)))
	}
	perm := r.Perm(n)
	tuple := make([]graph.NodeID, 1+r.Intn(3))
	for i := range tuple {
		tuple[i] = graph.NodeID(perm[i])
	}
	return g, tuple
}

// def1Edges computes E(H_t) by brute force from Def. 1: the edges on every
// undirected path of at most d edges that starts at a query entity. Paths
// repeat no edge; a node may recur, which only matters for self-loops.
func def1Edges(g *graph.Graph, tuple []graph.NodeID, d int) map[graph.Edge]bool {
	out := make(map[graph.Edge]bool)
	used := make(map[graph.Edge]bool)
	var walk func(v graph.NodeID, left int)
	walk = func(v graph.NodeID, left int) {
		if left == 0 {
			return
		}
		g.IncidentEdges(v, func(e graph.Edge) {
			if used[e] {
				return
			}
			out[e] = true
			used[e] = true
			far := e.Dst
			if far == v {
				far = e.Src
			}
			walk(far, left-1)
			used[e] = false
		})
	}
	for _, v := range tuple {
		walk(v, d)
	}
	return out
}

// withinD reports whether every pair of entities is joined by an undirected
// path of at most d edges.
func withinD(g *graph.Graph, tuple []graph.NodeID, d int) bool {
	for _, a := range tuple {
		dist := g.UndirectedDistances([]graph.NodeID{a}, d)
		for _, b := range tuple {
			if _, ok := dist[b]; !ok {
				return false
			}
		}
	}
	return true
}

// Property: H_t's edge set is Def. 1's for d ∈ {1, 2, 3}, listed once
// each. Extraction fails with ErrDisconnected exactly when H_t does not
// weakly connect the entities (for one entity: has no edges); otherwise
// H'_t is a weakly connected subgraph of H_t holding every entity.
func TestQuickHtMatchesDef1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, tuple := randomCase(r)
		for d := 1; d <= 3; d++ {
			want := def1Edges(g, tuple, d)
			ht := &graph.SubGraph{}
			//gqbelint:ignore determinism the set's order does not matter to a connectivity check
			for e := range want {
				ht.Edges = append(ht.Edges, e)
			}
			res, err := ExtractCtx(context.Background(), g, tuple, d)
			if err != nil {
				if !errors.Is(err, ErrDisconnected) || testkg.WeaklyConnected(ht, tuple) {
					t.Logf("seed %d d %d: %v", seed, d, err)
					return false
				}
				continue
			}
			inHt := make(map[graph.Edge]bool, len(res.Ht.Edges))
			for _, e := range res.Ht.Edges {
				if inHt[e] || !want[e] {
					t.Logf("seed %d d %d: H_t edge %v repeated or not in Def. 1", seed, d, e)
					return false
				}
				inHt[e] = true
			}
			if len(inHt) != len(want) {
				t.Logf("seed %d d %d: H_t has %d edges, Def. 1 %d", seed, d, len(inHt), len(want))
				return false
			}
			for _, e := range res.Reduced.Edges {
				if !inHt[e] {
					return false
				}
			}
			if !testkg.WeaklyConnected(res.Reduced, tuple) {
				t.Logf("seed %d d %d: H'_t does not connect the entities", seed, d)
				return false
			}
			res.Release()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// keptComponent runs the extraction's reduction passes and returns the
// entities' component over the edges the reduction keeps, without the
// keep-all fallback.
func keptComponent(t *testing.T, g *graph.Graph, tuple []graph.NodeID, d int) []graph.Edge {
	t.Helper()
	ctx := context.Background()
	x := getExtraction(g.NumNodes())
	defer pool.Put(x)
	g.UndirectedDistancesInto(x.dist, tuple, d)
	if _, err := x.extractEdges(ctx, g, d); err != nil {
		t.Fatal(err)
	}
	n := len(x.dist.Reached())
	if err := x.markUnimportant(ctx, g, n, len(tuple), d); err != nil {
		t.Fatal(err)
	}
	return x.component(n, len(tuple), true)
}

// Property (Theorem 2): when every pair of entities is joined by a path of
// at most d edges, the edges the reduction keeps connect them all: each
// such path's edges are IE from both endpoints, so none is unimportant.
func TestQuickReducedConnectsEntities(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, tuple := randomCase(r)
		if len(tuple) < 2 {
			return true
		}
		for d := 1; d <= 3; d++ {
			if !withinD(g, tuple, d) {
				continue
			}
			checked++
			if keptComponent(t, g, tuple, d) == nil {
				t.Logf("seed %d d %d: kept edges disconnect the entities", seed, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("no generated case had its entities within d of each other")
	}
}

// TestReduceFallbackLongPathEntity pins the case Theorem 2 does not cover,
// where the keep-all fallback is needed: v3 reaches the other entities only
// by a path longer than d. At d = 2, v1's edge toward v3 is not important
// at v1 (v3 is three edges away) but shares label and orientation with
// v1's important edge to v2, so it is unimportant and the kept edges leave
// v3 apart. The extraction then keeps all of H_t's component.
func TestReduceFallbackLongPathEntity(t *testing.T) {
	g := graph.New()
	g.AddEdge("v1", "l", "v2")
	g.AddEdge("v1", "l", "a")
	g.AddEdge("a", "x", "b")
	g.AddEdge("v3", "y", "b")
	tuple := testkg.Tuple(g, "v1", "v2", "v3")
	if keptComponent(t, g, tuple, 2) != nil {
		t.Fatal("the kept edges connect v3; the fallback is not exercised")
	}
	res, err := ExtractCtx(context.Background(), g, tuple, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Reduced.Edges, res.Ht.Edges) || len(res.Ht.Edges) != 4 {
		t.Errorf("H'_t = %v, want all four edges of H_t %v", res.Reduced.Edges, res.Ht.Edges)
	}
}
