package neighborhood

import (
	"context"
	"errors"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/testkg"
)

func extract(t *testing.T, names []string, d int) (*graph.Graph, *Result) {
	t.Helper()
	g := testkg.Fig1()
	res, err := ExtractCtx(context.Background(), g, testkg.Tuple(g, names...), d)
	if err != nil {
		t.Fatalf("ExtractCtx(context.Background(), %v, d=%d): %v", names, d, err)
	}
	return g, res
}

func hasEdge(t *testing.T, g *graph.Graph, s *graph.SubGraph, src, label, dst string) bool {
	t.Helper()
	l, ok := g.Label(label)
	if !ok {
		t.Fatalf("unknown label %q", label)
	}
	want := graph.Edge{Src: g.MustNode(src), Label: l, Dst: g.MustNode(dst)}
	for _, e := range s.Edges {
		if e == want {
			return true
		}
	}
	return false
}

func TestExtractContainsTupleNeighborhood(t *testing.T) {
	g, res := extract(t, []string{"Jerry Yang", "Yahoo!"}, 2)
	// Distance-1 and distance-2 facts around the tuple must be present.
	for _, e := range [][3]string{
		{"Jerry Yang", "founded", "Yahoo!"},
		{"Jerry Yang", "education", "Stanford"},
		{"Yahoo!", "headquartered_in", "Sunnyvale"},
		{"Sunnyvale", "located_in", "California"}, // Sunnyvale at dist 1
		{"David Filo", "founded", "Yahoo!"},
	} {
		if !hasEdge(t, g, res.Ht, e[0], e[1], e[2]) {
			t.Errorf("H_t missing edge %v", e)
		}
	}
}

func TestExtractRespectsDepth(t *testing.T) {
	g, res := extract(t, []string{"Jerry Yang", "Yahoo!"}, 1)
	if hasEdge(t, g, res.Ht, "Sunnyvale", "located_in", "California") {
		t.Error("d=1 neighborhood contains a distance-2 edge")
	}
	if !hasEdge(t, g, res.Ht, "Yahoo!", "headquartered_in", "Sunnyvale") {
		t.Error("d=1 neighborhood lost a distance-1 edge")
	}
}

func TestExtractEdgeRule(t *testing.T) {
	// An edge whose both endpoints are at distance d must NOT be included:
	// it lies only on paths of length d+1.
	g := graph.New()
	g.AddEdge("q", "a", "m1")
	g.AddEdge("q", "a", "m2")
	g.AddEdge("m1", "b", "f1") // f1 at distance 2
	g.AddEdge("m2", "b", "f2") // f2 at distance 2
	g.AddEdge("f1", "c", "f2") // both ends at distance 2
	res, err := ExtractCtx(context.Background(), g, []graph.NodeID{g.MustNode("q")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hasEdge(t, g, res.Ht, "f1", "c", "f2") {
		t.Error("edge between two distance-d nodes must be excluded")
	}
	if !hasEdge(t, g, res.Ht, "m1", "b", "f1") {
		t.Error("edge reaching a distance-d node must be included")
	}
}

func TestDistances(t *testing.T) {
	g, res := extract(t, []string{"Jerry Yang", "Yahoo!"}, 2)
	cases := map[string]int{
		"Jerry Yang": 0,
		"Yahoo!":     0,
		"Stanford":   1,
		"Sunnyvale":  1,
		"California": 2,
		"David Filo": 1,
	}
	for name, want := range cases {
		if got, ok := res.Dist.Get(g.MustNode(name)); !ok || got != want {
			t.Errorf("Dist[%s] = %d (reached %v), want %d", name, got, ok, want)
		}
	}
}

func TestReduceRemovesUnimportantEducationEdges(t *testing.T) {
	// The paper's own example (§III-C): among the education edges into
	// Stanford, Jerry Yang's is important; Brin's and Page's duplicate its
	// label+orientation without lying on a short path to the tuple, so they
	// are unimportant and must be pruned from H'_t.
	g, res := extract(t, []string{"Jerry Yang", "Yahoo!"}, 2)
	if !hasEdge(t, g, res.Reduced, "Jerry Yang", "education", "Stanford") {
		t.Error("reduced graph lost the important education edge")
	}
	if hasEdge(t, g, res.Reduced, "Sergey Brin", "education", "Stanford") {
		t.Error("reduced graph kept an unimportant education edge (Brin)")
	}
	if hasEdge(t, g, res.Reduced, "Larry Page", "education", "Stanford") {
		t.Error("reduced graph kept an unimportant education edge (Page)")
	}
}

func TestReduceKeepsDistinctLabelEdges(t *testing.T) {
	// An edge with a label not duplicated at its endpoints is neither
	// important nor unimportant (like e4 in the paper's Fig. 4) — it stays.
	g, res := extract(t, []string{"Jerry Yang", "Yahoo!"}, 2)
	// Stanford -located_in-> California: located_in from Stanford's side is
	// on a path Jerry->Stanford->California of length 2. From California's
	// side dist(Stanford)=1 ≤ d-1, so it's important from both. It stays.
	if !hasEdge(t, g, res.Reduced, "Stanford", "located_in", "California") {
		t.Error("reduced graph lost a distinct-label edge")
	}
}

func TestReducedIsConnectedAndContainsEntities(t *testing.T) {
	g, res := extract(t, []string{"Jerry Yang", "Yahoo!"}, 2)
	tuple := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	if !testkg.WeaklyConnected(res.Reduced, tuple) {
		t.Error("H'_t is not weakly connected or lost a query entity")
	}
	if len(res.Reduced.Edges) > len(res.Ht.Edges) {
		t.Error("reduction grew the graph")
	}
}

func TestReducedSubsetOfHt(t *testing.T) {
	_, res := extract(t, []string{"Jerry Yang", "Yahoo!"}, 2)
	all := make(map[graph.Edge]bool, len(res.Ht.Edges))
	for _, e := range res.Ht.Edges {
		all[e] = true
	}
	for _, e := range res.Reduced.Edges {
		if !all[e] {
			t.Errorf("reduced edge %v not in H_t", e)
		}
	}
}

func TestTheorem2PathEdgesSurvive(t *testing.T) {
	// Theorem 2: edges on ≤d paths between query entities are in IE of both
	// endpoints and can never be pruned, so entities stay connected.
	g, res := extract(t, []string{"Jerry Yang", "Steve Wozniak"}, 2)
	// Jerry Yang -places_lived-> San Jose <-places_lived- Steve Wozniak is
	// the length-2 connection between the entities.
	if !hasEdge(t, g, res.Reduced, "Jerry Yang", "places_lived", "San Jose") ||
		!hasEdge(t, g, res.Reduced, "Steve Wozniak", "places_lived", "San Jose") {
		t.Error("inter-entity path edges were pruned, violating Theorem 2")
	}
}

func TestErrors(t *testing.T) {
	g := testkg.Fig1()
	if _, err := ExtractCtx(context.Background(), g, nil, 2); err == nil {
		t.Error("empty tuple accepted")
	}
	if _, err := ExtractCtx(context.Background(), g, testkg.Tuple(g, "Jerry Yang"), 0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := ExtractCtx(context.Background(), g, []graph.NodeID{9999}, 2); err == nil {
		t.Error("out-of-range entity accepted")
	}
	jy := g.MustNode("Jerry Yang")
	if _, err := ExtractCtx(context.Background(), g, []graph.NodeID{jy, jy}, 2); err == nil {
		t.Error("duplicate query entity accepted")
	}
}

func TestDisconnectedEntities(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "l", "b")
	g.AddEdge("x", "l", "y")
	_, err := ExtractCtx(context.Background(), g, []graph.NodeID{g.MustNode("a"), g.MustNode("x")}, 2)
	if !errors.Is(err, ErrDisconnected) {
		t.Errorf("want ErrDisconnected, got %v", err)
	}
}

func TestIsolatedSingleEntity(t *testing.T) {
	g := graph.New()
	g.AddNode("lonely")
	g.AddEdge("a", "l", "b")
	_, err := ExtractCtx(context.Background(), g, []graph.NodeID{g.MustNode("lonely")}, 2)
	if !errors.Is(err, ErrDisconnected) {
		t.Errorf("want ErrDisconnected for isolated entity, got %v", err)
	}
}

func TestSingleEntityTuple(t *testing.T) {
	// Single-entity queries (like the paper's F19 ⟨C⟩) must work: the
	// neighborhood is just the entity's vicinity.
	g, res := extract(t, []string{"Stanford"}, 1)
	if !hasEdge(t, g, res.Reduced, "Jerry Yang", "education", "Stanford") {
		t.Error("single-entity neighborhood missing incident edge")
	}
	if !res.Reduced.HasNode(g.MustNode("Stanford")) {
		t.Error("reduced graph does not contain the query entity")
	}
}

func TestReductionShrinksFanStructures(t *testing.T) {
	// Build a hub with one important and many unimportant same-label edges.
	g := graph.New()
	g.AddEdge("q", "works_at", "Hub")
	for _, p := range []string{"p1", "p2", "p3", "p4", "p5"} {
		g.AddEdge(p, "works_at", "Hub")
	}
	res, err := ExtractCtx(context.Background(), g, []graph.NodeID{g.MustNode("q")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ht.Edges) != 6 {
		t.Fatalf("H_t has %d edges, want 6", len(res.Ht.Edges))
	}
	if len(res.Reduced.Edges) != 1 {
		t.Errorf("H'_t has %d edges, want 1 (only q's own edge)", len(res.Reduced.Edges))
	}
}
