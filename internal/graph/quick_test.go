package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSubGraph builds a small random subgraph from a rand source, used by
// the property-based tests below.
func randomSubGraph(r *rand.Rand, maxNodes, maxEdges int) *SubGraph {
	n := 2 + r.Intn(maxNodes-1)
	m := 1 + r.Intn(maxEdges)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{
			Src:   NodeID(r.Intn(n)),
			Label: LabelID(r.Intn(4)),
			Dst:   NodeID(r.Intn(n)),
		})
	}
	return NewSubGraph(edges)
}

// Property: components partition the edge set — every edge appears in exactly
// one component, and each component is weakly connected.
func TestQuickComponentsPartitionEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSubGraph(r, 12, 20)
		comps := s.Components()
		total := 0
		seen := make(map[Edge]bool)
		for _, c := range comps {
			total += c.NumEdges()
			if !weaklyConnected(c) {
				return false
			}
			for _, e := range c.Edges {
				if seen[e] {
					return false
				}
				seen[e] = true
			}
		}
		return total == s.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: undirected BFS distances satisfy the triangle property across
// any edge — distances of the two endpoints differ by at most 1 when both
// are reached.
func TestQuickBFSDistancesEdgeConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, edges := randomGraph(r, 10, 18)
		if len(edges) == 0 {
			return true
		}
		dist := g.UndirectedDistances([]NodeID{edges[0].Src}, 1<<30)
		for _, e := range edges {
			du, okU := dist[e.Src]
			dv, okV := dist[e.Dst]
			if okU != okV {
				return false // an edge can't straddle the reachable boundary
			}
			if okU {
				d := du - dv
				if d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: union-find connectivity over a subgraph's nodes, numbered by
// their rank in Nodes(), agrees with SubGraph component membership for
// every pair of endpoint nodes.
func TestQuickUnionFindMatchesComponents(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSubGraph(r, 10, 16)
		nodes := s.Nodes()
		local := make(map[NodeID]int32, len(nodes))
		for i, v := range nodes {
			local[v] = int32(i)
		}
		var u UnionFind
		u.Reset(len(nodes))
		for _, e := range s.Edges {
			u.AddEdge(local[e.Src], local[e.Dst])
		}
		comp := make(map[NodeID]int)
		for ci, c := range s.Components() {
			for _, e := range c.Edges {
				comp[e.Src], comp[e.Dst] = ci, ci
			}
			// Each set counts the edges of its component.
			if u.EdgeCount(local[c.Edges[0].Src]) != c.NumEdges() {
				return false
			}
		}
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				want := comp[nodes[i]] == comp[nodes[j]]
				if (u.Find(int32(i)) == u.Find(int32(j))) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the big-graph undirected BFS — map-based and flat — agrees
// with a BFS over the subgraph's adjacency when the subgraph is the whole
// graph, and the flat table numbers the reached nodes by visit position.
func TestQuickGraphVsSubgraphBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, edges := randomGraph(r, 10, 16)
		if len(edges) == 0 {
			return true
		}
		s := NewSubGraph(edges)
		seed1 := edges[0].Src
		dg := g.UndirectedDistances([]NodeID{seed1}, 1<<30)
		ds := subGraphDistances(s, seed1)
		dm := NewDistMap(g.NumNodes())
		g.UndirectedDistancesInto(dm, []NodeID{seed1}, 1<<30)
		if len(dg) != len(ds) || len(dm.Reached()) != len(ds) {
			return false
		}
		for v, d := range ds {
			got, ok := dm.Get(v)
			if dg[v] != d || !ok || got != d {
				return false
			}
		}
		for i, v := range dm.Reached() {
			if j, ok := dm.Index(v); !ok || j != i || int(dm.Dists()[i]) != ds[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a small random data graph with up to maxNodes nodes
// and maxEdges edge attempts over two labels, returning the edges added.
func randomGraph(r *rand.Rand, maxNodes, maxEdges int) (*Graph, []Edge) {
	g := New()
	n := 3 + r.Intn(maxNodes-2)
	m := 2 + r.Intn(maxEdges-1)
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a' + i)))
	}
	labels := [2]LabelID{g.AddLabel("l"), g.AddLabel("m")}
	var edges []Edge
	for i := 0; i < m; i++ {
		e := Edge{Src: NodeID(r.Intn(n)), Label: labels[r.Intn(2)], Dst: NodeID(r.Intn(n))}
		if g.AddEdgeIDs(e.Src, e.Label, e.Dst) {
			edges = append(edges, e)
		}
	}
	return g, edges
}

// subGraphDistances is a BFS over s's adjacency from seed.
func subGraphDistances(s *SubGraph, seed NodeID) map[NodeID]int {
	adj := s.Adjacency()
	dist := map[NodeID]int{seed: 0}
	queue := []NodeID{seed}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, ei := range adj[v] {
			for _, u := range [2]NodeID{s.Edges[ei].Src, s.Edges[ei].Dst} {
				if _, ok := dist[u]; !ok {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return dist
}

// weaklyConnected reports whether every endpoint of s is reachable from
// its first edge.
func weaklyConnected(s *SubGraph) bool {
	dist := subGraphDistances(s, s.Edges[0].Src)
	for _, e := range s.Edges {
		if _, ok := dist[e.Dst]; !ok {
			return false
		}
	}
	return true
}
