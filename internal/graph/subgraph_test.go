package graph

import (
	"reflect"
	"testing"
)

// edge is shorthand for building test edges with small IDs.
func edge(src, label, dst int) Edge {
	return Edge{Src: NodeID(src), Label: LabelID(label), Dst: NodeID(dst)}
}

func TestNewSubGraphDedup(t *testing.T) {
	s := NewSubGraph([]Edge{edge(1, 0, 2), edge(1, 0, 2), edge(2, 0, 3)})
	if s.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 after dedup", s.NumEdges())
	}
	if s.Edges[0] != edge(1, 0, 2) {
		t.Error("dedup should preserve first-occurrence order")
	}
}

func TestSubGraphNodes(t *testing.T) {
	s := NewSubGraph([]Edge{edge(5, 0, 2), edge(2, 1, 9)})
	got := s.Nodes()
	want := []NodeID{2, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Nodes = %v, want %v", got, want)
	}
	if s.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", s.NumNodes())
	}
}

func TestSubGraphHasNodeAndContainsAll(t *testing.T) {
	s := NewSubGraph([]Edge{edge(1, 0, 2), edge(2, 0, 3)})
	if !s.HasNode(2) || s.HasNode(7) {
		t.Error("HasNode misreported membership")
	}
	if !s.ContainsAll([]NodeID{1, 3}) {
		t.Error("ContainsAll(1,3) = false, want true")
	}
	if s.ContainsAll([]NodeID{1, 7}) {
		t.Error("ContainsAll(1,7) = true, want false")
	}
	if !s.ContainsAll(nil) {
		t.Error("ContainsAll(nil) should be vacuously true")
	}
}

func TestComponents(t *testing.T) {
	s := NewSubGraph([]Edge{edge(1, 0, 2), edge(2, 0, 3), edge(8, 0, 9), edge(9, 1, 10)})
	comps := s.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].NumEdges() != 2 || comps[1].NumEdges() != 2 {
		t.Errorf("component sizes %d,%d; want 2,2", comps[0].NumEdges(), comps[1].NumEdges())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSubGraph([]Edge{edge(1, 0, 2)})
	c := s.Clone()
	c.Edges[0] = edge(9, 9, 9)
	if s.Edges[0] != edge(1, 0, 2) {
		t.Error("Clone shares backing storage with original")
	}
}

func TestAdjacencySelfLoop(t *testing.T) {
	s := NewSubGraph([]Edge{edge(1, 0, 1), edge(1, 0, 2)})
	adj := s.Adjacency()
	if got := len(adj[1]); got != 2 {
		t.Errorf("self-loop node adjacency = %d entries, want 2 (no double count)", got)
	}
}

func TestSubGraphFormat(t *testing.T) {
	g := New()
	g.AddEdge("a", "knows", "b")
	a, b := g.MustNode("a"), g.MustNode("b")
	l, _ := g.Label("knows")
	s := NewSubGraph([]Edge{{Src: a, Label: l, Dst: b}})
	if got := s.Format(g); got != "a -knows-> b" {
		t.Errorf("Format = %q", got)
	}
}

func TestUnionFindBasics(t *testing.T) {
	var u UnionFind
	u.Reset(5)
	if u.Find(1) != u.Find(1) {
		t.Error("id not in the same set as itself")
	}
	if u.Find(1) == u.Find(2) {
		t.Error("fresh ids should be in different sets")
	}
	u.Union(1, 2)
	u.Union(3, 4)
	if u.Find(1) != u.Find(2) || u.Find(2) == u.Find(3) {
		t.Error("union results wrong")
	}
	u.Union(2, 3)
	if !u.AllSameSet([]int32{1, 2, 3, 4}) {
		t.Error("all four ids should be united")
	}
	if u.AllSameSet([]int32{0, 1}) {
		t.Error("id 0 was never united")
	}
	if !u.AllSameSet(nil) {
		t.Error("AllSameSet(nil) should be vacuously true")
	}
	u.Reset(3)
	if u.Find(1) == u.Find(2) || u.EdgeCount(1) != 0 {
		t.Error("Reset left a union behind")
	}
}

func TestUnionFindEdgeCount(t *testing.T) {
	var u UnionFind
	u.Reset(10)
	u.AddEdge(1, 2)
	u.AddEdge(2, 3)
	if got := u.EdgeCount(3); got != 2 {
		t.Errorf("EdgeCount = %d, want 2", got)
	}
	u.AddEdge(8, 9)
	if got := u.EdgeCount(8); got != 1 {
		t.Errorf("EdgeCount(other set) = %d, want 1", got)
	}
	// Merging two sets must merge edge counts; a self-loop counts once.
	u.AddEdge(3, 8)
	u.AddEdge(5, 5)
	if got := u.EdgeCount(1); got != 4 {
		t.Errorf("EdgeCount after merge = %d, want 4", got)
	}
	if got := u.EdgeCount(5); got != 1 {
		t.Errorf("EdgeCount(self-loop) = %d, want 1", got)
	}
}
