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

func TestVirtualNodeHelpers(t *testing.T) {
	for slot := 0; slot < 5; slot++ {
		v := VirtualNode(slot)
		if !IsVirtual(v) {
			t.Errorf("VirtualNode(%d) = %d not virtual", slot, v)
		}
		if VirtualSlot(v) != slot {
			t.Errorf("VirtualSlot(VirtualNode(%d)) = %d", slot, VirtualSlot(v))
		}
	}
	if IsVirtual(0) || IsVirtual(42) {
		t.Error("data-graph IDs must not be virtual")
	}
}

func TestNodeName(t *testing.T) {
	g := testkg.Fig1()
	if got := NodeName(g, VirtualNode(0)); got != "w1" {
		t.Errorf("NodeName(virtual 0) = %q, want w1", got)
	}
	if got := NodeName(g, g.MustNode("Yahoo!")); got != "Yahoo!" {
		t.Errorf("NodeName = %q", got)
	}
}

// discoverFor builds an MQG for one tuple over the Fig. 1 graph.
func discoverFor(t *testing.T, g *graph.Graph, st *stats.Stats, r int, names ...string) *MQG {
	t.Helper()
	tuple := testkg.Tuple(g, names...)
	nres, err := neighborhood.ExtractCtx(context.Background(), g, tuple, 2)
	if err != nil {
		t.Fatalf("Extract(%v): %v", names, err)
	}
	m, err := DiscoverCtx(context.Background(), st, nres.Reduced, tuple, r)
	if err != nil {
		t.Fatalf("DiscoverCtx(context.Background(), %v): %v", names, err)
	}
	return m
}

func TestMergeFig8Scenario(t *testing.T) {
	// The paper's Example 3: merging the MQGs of ⟨Steve Wozniak, Apple Inc.⟩
	// and ⟨Jerry Yang, Yahoo!⟩ must merge the founded edges (both incident
	// on w1, w2 in virtual form) and keep per-tuple edges like education.
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	m1 := discoverFor(t, g, st, 10, "Steve Wozniak", "Apple Inc.")
	m2 := discoverFor(t, g, st, 10, "Jerry Yang", "Yahoo!")
	merged, err := MergeCtx(context.Background(), []*MQG{m1, m2}, 15)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(merged.Tuple) != 2 || !IsVirtual(merged.Tuple[0]) || !IsVirtual(merged.Tuple[1]) {
		t.Fatalf("merged tuple not virtual: %v", merged.Tuple)
	}
	founded, _ := g.Label("founded")
	fe := graph.Edge{Src: VirtualNode(0), Label: founded, Dst: VirtualNode(1)}
	w := merged.WeightOf(fe)
	if w == 0 {
		t.Fatalf("merged MQG lost the virtual founded edge; edges: %v", merged.Sub.Edges)
	}
	// Present in both source MQGs → weight must be 2 × the max single weight.
	w1 := m1.WeightOf(graph.Edge{Src: g.MustNode("Steve Wozniak"), Label: founded, Dst: g.MustNode("Apple Inc.")})
	w2 := m2.WeightOf(graph.Edge{Src: g.MustNode("Jerry Yang"), Label: founded, Dst: g.MustNode("Yahoo!")})
	want := 2 * math.Max(w1, w2)
	if math.Abs(w-want) > 1e-12 {
		t.Errorf("merged founded weight = %v, want c·wmax = %v", w, want)
	}
}

func TestMergeSharedNonEntityNodesMerge(t *testing.T) {
	// Jerry Yang and Steve Wozniak both lived in San Jose: after mapping the
	// founders to w1, the two places_lived edges become the identical edge
	// (w1 -places_lived-> San Jose) and must merge with count 2.
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	m1 := discoverFor(t, g, st, 10, "Steve Wozniak", "Apple Inc.")
	m2 := discoverFor(t, g, st, 10, "Jerry Yang", "Yahoo!")
	pl, ok := g.Label("places_lived")
	if !ok {
		t.Fatal("no places_lived label")
	}
	sj := g.MustNode("San Jose")
	e1 := graph.Edge{Src: g.MustNode("Steve Wozniak"), Label: pl, Dst: sj}
	e2 := graph.Edge{Src: g.MustNode("Jerry Yang"), Label: pl, Dst: sj}
	if m1.WeightOf(e1) == 0 || m2.WeightOf(e2) == 0 {
		t.Skip("places_lived did not survive MQG trimming in this configuration")
	}
	merged, err := MergeCtx(context.Background(), []*MQG{m1, m2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	ve := graph.Edge{Src: VirtualNode(0), Label: pl, Dst: sj}
	want := 2 * math.Max(m1.WeightOf(e1), m2.WeightOf(e2))
	if got := merged.WeightOf(ve); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged places_lived weight = %v, want %v", got, want)
	}
}

func TestMergeHeadquarteredNotMerged(t *testing.T) {
	// Example 3 again: headquartered_in edges share only one endpoint (w2);
	// the cities differ, so they must remain separate edges with count 1.
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	m1 := discoverFor(t, g, st, 10, "Steve Wozniak", "Apple Inc.")
	m2 := discoverFor(t, g, st, 10, "Jerry Yang", "Yahoo!")
	hq, _ := g.Label("headquartered_in")
	cup, sun := g.MustNode("Cupertino"), g.MustNode("Sunnyvale")
	merged, err := MergeCtx(context.Background(), []*MQG{m1, m2}, 25)
	if err != nil {
		t.Fatal(err)
	}
	we1 := merged.WeightOf(graph.Edge{Src: VirtualNode(1), Label: hq, Dst: cup})
	we2 := merged.WeightOf(graph.Edge{Src: VirtualNode(1), Label: hq, Dst: sun})
	if we1 == 0 || we2 == 0 {
		t.Skip("headquartered_in edges trimmed from merged MQG")
	}
	c1 := m1.WeightOf(graph.Edge{Src: g.MustNode("Apple Inc."), Label: hq, Dst: cup})
	c2 := m2.WeightOf(graph.Edge{Src: g.MustNode("Yahoo!"), Label: hq, Dst: sun})
	if math.Abs(we1-c1) > 1e-12 || math.Abs(we2-c2) > 1e-12 {
		t.Errorf("unshared edges must keep count-1 weights: got %v/%v want %v/%v", we1, we2, c1, c2)
	}
}

func TestMergeTrimsToBudget(t *testing.T) {
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	m1 := discoverFor(t, g, st, 10, "Steve Wozniak", "Apple Inc.")
	m2 := discoverFor(t, g, st, 10, "Jerry Yang", "Yahoo!")
	merged, err := MergeCtx(context.Background(), []*MQG{m1, m2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Sub.Edges) > 8 {
		t.Errorf("merged MQG has %d edges, expected close to r=5", len(merged.Sub.Edges))
	}
	if !testkg.WeaklyConnected(merged.Sub, merged.Tuple) {
		t.Error("trimmed merged MQG disconnected")
	}
}

func TestMergeSingleMQGIsIdentityModuloVirtual(t *testing.T) {
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	m := discoverFor(t, g, st, 10, "Jerry Yang", "Yahoo!")
	merged, err := MergeCtx(context.Background(), []*MQG{m}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Sub.Edges) != len(m.Sub.Edges) {
		t.Fatalf("edge count changed: %d vs %d", len(merged.Sub.Edges), len(m.Sub.Edges))
	}
	// Every merged weight must equal 1 × the original weight.
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	if math.Abs(merged.TotalWeight()-total) > 1e-9 {
		t.Errorf("total weight changed on identity merge: %v vs %v", merged.TotalWeight(), total)
	}
}

func TestMergeErrors(t *testing.T) {
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	if _, err := MergeCtx(context.Background(), nil, 10); err == nil {
		t.Error("empty merge accepted")
	}
	m2 := discoverFor(t, g, st, 10, "Jerry Yang", "Yahoo!")
	m1 := discoverFor(t, g, st, 10, "Stanford")
	if _, err := MergeCtx(context.Background(), []*MQG{m1, m2}, 10); err == nil {
		t.Error("mismatched tuple sizes accepted")
	}
	if _, err := MergeCtx(context.Background(), []*MQG{m2}, 0); err == nil {
		t.Error("r=0 accepted")
	}
}

func TestSortEdgesByWeight(t *testing.T) {
	g := testkg.Fig1()
	st := stats.New(storage.Build(g))
	m := discoverFor(t, g, st, 12, "Jerry Yang", "Yahoo!")
	order := m.SortEdgesByWeight()
	if len(order) != len(m.Sub.Edges) {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if m.Weights[order[i-1]] < m.Weights[order[i]] {
			t.Fatalf("weights not descending at %d", i)
		}
	}
}
