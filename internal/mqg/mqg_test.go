package mqg

import (
	"context"
	"math"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/neighborhood"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
	"gqbe/internal/testkg"
)

// fig1MQG runs the full discovery pipeline on the Fig. 1 fixture.
func fig1MQG(t *testing.T, r int, names ...string) (*graph.Graph, *stats.Stats, *MQG) {
	t.Helper()
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	tuple := testkg.Tuple(g, names...)
	nres, err := neighborhood.ExtractCtx(context.Background(), g, tuple, 2)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	m, err := DiscoverCtx(context.Background(), st, nres.Reduced, tuple, r)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	return g, st, m
}

func TestDiscoverBasicShape(t *testing.T) {
	g, _, m := fig1MQG(t, 10, "Jerry Yang", "Yahoo!")
	if len(m.Sub.Edges) == 0 {
		t.Fatal("empty MQG")
	}
	if len(m.Sub.Edges) > 12 {
		t.Errorf("MQG has %d edges, expected close to r=10", len(m.Sub.Edges))
	}
	tuple := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	if !testkg.WeaklyConnected(m.Sub, tuple) {
		t.Error("MQG is not weakly connected over the query entities")
	}
	if len(m.Weights) != len(m.Sub.Edges) || len(m.Depths) != len(m.Sub.Edges) {
		t.Error("weights/depths not parallel to edges")
	}
}

func TestDiscoverKeepsFoundedEdge(t *testing.T) {
	// The founded edge between the two query entities is the single most
	// important feature of ⟨Jerry Yang, Yahoo!⟩ and must survive.
	g, _, m := fig1MQG(t, 10, "Jerry Yang", "Yahoo!")
	l, _ := g.Label("founded")
	want := graph.Edge{Src: g.MustNode("Jerry Yang"), Label: l, Dst: g.MustNode("Yahoo!")}
	if m.WeightOf(want) == 0 {
		t.Errorf("MQG lost the founded edge; edges: %s", m.Sub.Format(g))
	}
}

func TestDiscoverSmallBudget(t *testing.T) {
	g, _, m := fig1MQG(t, 3, "Jerry Yang", "Yahoo!")
	tuple := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	if !testkg.WeaklyConnected(m.Sub, tuple) {
		t.Error("small-budget MQG is disconnected")
	}
	if len(m.Sub.Edges) > 6 {
		t.Errorf("small budget r=3 produced %d edges", len(m.Sub.Edges))
	}
}

func TestDiscoverSingleEntity(t *testing.T) {
	g, _, m := fig1MQG(t, 6, "Stanford")
	if !m.Sub.HasNode(g.MustNode("Stanford")) {
		t.Error("single-entity MQG does not contain the entity")
	}
	if !testkg.WeaklyConnected(m.Sub, testkg.Tuple(g, "Stanford")) {
		t.Error("single-entity MQG disconnected")
	}
}

func TestDepthsClampedAndOrdered(t *testing.T) {
	g, _, m := fig1MQG(t, 12, "Jerry Yang", "Yahoo!")
	tuple := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	dist := testkg.Distances(m.Sub, tuple)
	for i, e := range m.Sub.Edges {
		if m.Depths[i] < 1 {
			t.Fatalf("depth %d < 1 for edge %d", m.Depths[i], i)
		}
		raw := dist[e.Src]
		if dv := dist[e.Dst]; dv < raw {
			raw = dv
		}
		want := raw
		if want < 1 {
			want = 1
		}
		if m.Depths[i] != want {
			t.Errorf("edge %d depth = %d, want %d", i, m.Depths[i], want)
		}
	}
}

func TestWeightsUseEq8(t *testing.T) {
	_, st, m := fig1MQG(t, 12, "Jerry Yang", "Yahoo!")
	for i, e := range m.Sub.Edges {
		want := st.DepthWeight(e, m.Depths[i])
		if math.Abs(m.Weights[i]-want) > 1e-12 {
			t.Errorf("edge %d weight = %v, want Eq.8 value %v", i, m.Weights[i], want)
		}
	}
}

func TestTotalWeight(t *testing.T) {
	_, _, m := fig1MQG(t, 10, "Jerry Yang", "Yahoo!")
	sum := 0.0
	for _, w := range m.Weights {
		sum += w
	}
	if math.Abs(m.TotalWeight()-sum) > 1e-12 {
		t.Errorf("TotalWeight = %v, want %v", m.TotalWeight(), sum)
	}
}

func TestIncidentCount(t *testing.T) {
	g, _, m := fig1MQG(t, 10, "Jerry Yang", "Yahoo!")
	jy := g.MustNode("Jerry Yang")
	n := 0
	for _, e := range m.Sub.Edges {
		if e.Src == jy || e.Dst == jy {
			n++
		}
	}
	if got := m.IncidentCount(jy); got != n {
		t.Errorf("IncidentCount = %d, want %d", got, n)
	}
}

func TestDiscoverErrors(t *testing.T) {
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	tuple := testkg.Tuple(g, "Jerry Yang", "Yahoo!")
	nres, err := neighborhood.ExtractCtx(context.Background(), g, tuple, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverCtx(context.Background(), st, nres.Reduced, nil, 10); err == nil {
		t.Error("empty tuple accepted")
	}
	if _, err := DiscoverCtx(context.Background(), st, nres.Reduced, tuple, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := DiscoverCtx(context.Background(), st, &graph.SubGraph{}, tuple, 10); err == nil {
		t.Error("empty reduced graph accepted")
	}
	other := testkg.Tuple(g, "Redmond")
	if _, err := DiscoverCtx(context.Background(), st, nres.Reduced, other, 10); err == nil {
		t.Error("tuple outside the reduced graph accepted")
	}
}

// trim runs the greedy search over all of edges.
func trim(edges []graph.Edge, weights []float64, required []graph.NodeID, m int) *graph.SubGraph {
	f := newFrame(edges, weights, required)
	return f.subGraph(f.greedyTrim(f.all(), f.locals(required), m))
}

// decompose splits edges into parts around the entities of tuple.
func decompose(edges []graph.Edge, weights []float64, tuple []graph.NodeID) []part {
	f := newFrame(edges, weights, tuple)
	return f.decompose(f.locals(tuple))
}

func TestGreedyTrimExactBudget(t *testing.T) {
	// A star around node 0 with strictly decreasing weights must trim to
	// exactly m highest-weight edges.
	var edges []graph.Edge
	var weights []float64
	for i := 1; i <= 8; i++ {
		edges = append(edges, graph.Edge{Src: 0, Label: 0, Dst: graph.NodeID(i)})
		weights = append(weights, float64(10-i))
	}
	ms := trim(edges, weights, []graph.NodeID{0}, 3)
	if len(ms.Edges) != 3 {
		t.Fatalf("trim produced %d edges, want 3", len(ms.Edges))
	}
	for _, e := range ms.Edges {
		if e.Dst > 3 {
			t.Errorf("trim kept low-weight edge to %d", e.Dst)
		}
	}
}

func TestGreedyTrimPrefersBelowWhenNoExact(t *testing.T) {
	// Two heavy edges arrive disconnected from the entity; connecting the
	// entity brings 1 edge, then a merge jumps the component from 1 to 4
	// edges. With m=3 there is no exact hit: sizes go 1 → 4, so the rule
	// picks the largest below m (size 1)... unless s1 does not exist.
	edges := []graph.Edge{
		{Src: 10, Label: 0, Dst: 11}, // w=9, away from entity
		{Src: 11, Label: 0, Dst: 12}, // w=8, away from entity
		{Src: 0, Label: 0, Dst: 1},   // w=7, touches entity 0
		{Src: 1, Label: 0, Dst: 10},  // w=6, merges everything: size 4
	}
	weights := []float64{9, 8, 7, 6}
	ms := trim(edges, weights, []graph.NodeID{0}, 3)
	if len(ms.Edges) != 1 {
		t.Fatalf("want the size-1 M_s (largest below m), got %d edges", len(ms.Edges))
	}
	if ms.Edges[0] != edges[2] {
		t.Errorf("wrong edge kept: %v", ms.Edges[0])
	}
}

func TestGreedyTrimTakesAboveWhenNothingBelow(t *testing.T) {
	// The first time the required pair connects, the component already has
	// 3 edges; with m=2 there is no exact and no below, so s2 (above) wins.
	edges := []graph.Edge{
		{Src: 0, Label: 0, Dst: 5},  // w=9
		{Src: 5, Label: 0, Dst: 6},  // w=8
		{Src: 6, Label: 0, Dst: 1},  // w=7 — connects 0 and 1 with 3 edges
		{Src: 0, Label: 1, Dst: 99}, // w=1
	}
	weights := []float64{9, 8, 7, 1}
	ms := trim(edges, weights, []graph.NodeID{0, 1}, 2)
	if len(ms.Edges) != 3 {
		t.Fatalf("want the size-3 M_s (smallest above m), got %d", len(ms.Edges))
	}
}

func TestGreedyTrimDisconnected(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Label: 0, Dst: 1}}
	ms := trim(edges, []float64{1}, []graph.NodeID{0, 7}, 2)
	if len(ms.Edges) != 0 {
		t.Errorf("unconnectable requirement should yield empty M_s, got %d edges", len(ms.Edges))
	}
}

func TestGreedyTrimExcludesForeignComponents(t *testing.T) {
	// Heavy edges in a foreign component must not leak into M_s.
	edges := []graph.Edge{
		{Src: 50, Label: 0, Dst: 51}, // w=9, foreign
		{Src: 0, Label: 0, Dst: 1},   // w=5
		{Src: 1, Label: 0, Dst: 2},   // w=4
	}
	weights := []float64{9, 5, 4}
	ms := trim(edges, weights, []graph.NodeID{0}, 2)
	for _, e := range ms.Edges {
		if e.Src == 50 {
			t.Error("foreign component edge leaked into M_s")
		}
	}
	if len(ms.Edges) != 2 {
		t.Errorf("got %d edges, want 2", len(ms.Edges))
	}
}

func TestDecomposeSeparatesCoreAndIndividual(t *testing.T) {
	// Entities 0 and 1; 0—2—1 is the core path; 3 hangs off 0 only; 4 hangs
	// off 1 only.
	edges := []graph.Edge{
		{Src: 0, Label: 0, Dst: 2},
		{Src: 2, Label: 0, Dst: 1},
		{Src: 3, Label: 1, Dst: 0},
		{Src: 1, Label: 1, Dst: 4},
	}
	weights := []float64{1, 1, 1, 1}
	parts := decompose(edges, weights, []graph.NodeID{0, 1})
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want core + 2 individuals", len(parts))
	}
	core := parts[0]
	if len(core.edges) != 2 {
		t.Errorf("core has %d edges, want 2", len(core.edges))
	}
	for _, p := range parts[1:] {
		if len(p.edges) != 1 {
			t.Errorf("individual part has %d edges, want 1", len(p.edges))
		}
	}
}

func TestDecomposeEntityEntityEdgeIsCore(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Label: 0, Dst: 1},
		{Src: 0, Label: 1, Dst: 9},
	}
	weights := []float64{1, 1}
	parts := decompose(edges, weights, []graph.NodeID{0, 1})
	if len(parts[0].edges) != 1 || parts[0].edges[0] != 0 {
		t.Errorf("entity-entity edge not in core: %+v", parts[0].edges)
	}
}

func TestDecomposeMultiEntityComponentIsCore(t *testing.T) {
	// Component {2,3} touches both entities → all of it is core, including
	// the interior edge.
	edges := []graph.Edge{
		{Src: 0, Label: 0, Dst: 2},
		{Src: 2, Label: 0, Dst: 3},
		{Src: 3, Label: 0, Dst: 1},
	}
	weights := []float64{1, 1, 1}
	parts := decompose(edges, weights, []graph.NodeID{0, 1})
	if len(parts) != 1 {
		t.Fatalf("got %d parts, want 1 (all core)", len(parts))
	}
	if len(parts[0].edges) != 3 {
		t.Errorf("core has %d edges, want 3", len(parts[0].edges))
	}
}

func TestDiscoverBalancedAcrossEntities(t *testing.T) {
	// One entity has many heavy edges, the other few light ones; the
	// divide-and-conquer must still represent both sides.
	g := graph.New()
	g.AddEdge("A", "link", "B")
	for i := 0; i < 10; i++ {
		g.AddEdge("A", "rareA", "a"+string(rune('0'+i)))
	}
	g.AddEdge("B", "rareB", "b0")
	g.AddEdge("B", "rareB2", "b1")
	st := stats.New(storage.Build(g))
	tuple := []graph.NodeID{g.MustNode("A"), g.MustNode("B")}
	nres, err := neighborhood.ExtractCtx(context.Background(), g, tuple, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DiscoverCtx(context.Background(), st, nres.Reduced, tuple, 9)
	if err != nil {
		t.Fatal(err)
	}
	b := g.MustNode("B")
	bCount := 0
	for _, e := range m.Sub.Edges {
		if e.Src == b || e.Dst == b {
			bCount++
		}
	}
	if bCount < 2 {
		t.Errorf("B has only %d incident MQG edges; balance failed: %s", bCount, m.Sub.Format(g))
	}
}
