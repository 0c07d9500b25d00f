package graph

import (
	"fmt"
	"sort"
	"strings"
)

// SubGraph is a small graph over data-graph node IDs, stored as a
// deduplicated edge list. The neighborhood graph H_t, the reduced graph H'_t,
// the maximal query graph, and every query graph in the lattice are
// SubGraphs. Edge order is preserved from construction so downstream
// processing is deterministic.
type SubGraph struct {
	Edges []Edge
}

// NewSubGraph builds a SubGraph from edges, dropping duplicates while
// preserving first-occurrence order.
func NewSubGraph(edges []Edge) *SubGraph {
	s := &SubGraph{Edges: make([]Edge, 0, len(edges))}
	seen := make(map[Edge]struct{}, len(edges))
	for _, e := range edges {
		if _, ok := seen[e]; ok {
			continue
		}
		seen[e] = struct{}{}
		s.Edges = append(s.Edges, e)
	}
	return s
}

// NumEdges reports the number of edges.
func (s *SubGraph) NumEdges() int { return len(s.Edges) }

// Nodes returns the sorted set of endpoint node IDs.
func (s *SubGraph) Nodes() []NodeID {
	set := make(map[NodeID]struct{}, len(s.Edges)*2)
	for _, e := range s.Edges {
		set[e.Src] = struct{}{}
		set[e.Dst] = struct{}{}
	}
	nodes := make([]NodeID, 0, len(set))
	for v := range set {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// NumNodes reports the number of distinct endpoint nodes.
func (s *SubGraph) NumNodes() int { return len(s.Nodes()) }

// HasNode reports whether v is an endpoint of some edge.
func (s *SubGraph) HasNode(v NodeID) bool {
	for _, e := range s.Edges {
		if e.Src == v || e.Dst == v {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every node in vs is an endpoint of some edge.
func (s *SubGraph) ContainsAll(vs []NodeID) bool {
	need := make(map[NodeID]bool, len(vs))
	for _, v := range vs {
		need[v] = true
	}
	for _, e := range s.Edges {
		delete(need, e.Src)
		delete(need, e.Dst)
		if len(need) == 0 {
			return true
		}
	}
	return len(need) == 0
}

// Adjacency returns, for each endpoint node, the indices into Edges of its
// incident edges (both directions).
func (s *SubGraph) Adjacency() map[NodeID][]int {
	adj := make(map[NodeID][]int, len(s.Edges))
	for i, e := range s.Edges {
		adj[e.Src] = append(adj[e.Src], i)
		if e.Dst != e.Src {
			adj[e.Dst] = append(adj[e.Dst], i)
		}
	}
	return adj
}

// Components returns the weakly connected components of the subgraph, each as
// a SubGraph. Order is deterministic (by smallest contained edge index).
func (s *SubGraph) Components() []*SubGraph {
	adj := s.Adjacency()
	assigned := make(map[int]bool, len(s.Edges))
	var comps []*SubGraph
	for i := range s.Edges {
		if assigned[i] {
			continue
		}
		seenNode := map[NodeID]bool{s.Edges[i].Src: true}
		stack := []NodeID{s.Edges[i].Src}
		var edgeIdx []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range adj[v] {
				if !assigned[ei] {
					assigned[ei] = true
					edgeIdx = append(edgeIdx, ei)
				}
				for _, u := range [2]NodeID{s.Edges[ei].Src, s.Edges[ei].Dst} {
					if !seenNode[u] {
						seenNode[u] = true
						stack = append(stack, u)
					}
				}
			}
		}
		sort.Ints(edgeIdx)
		edges := make([]Edge, len(edgeIdx))
		for j, ei := range edgeIdx {
			edges[j] = s.Edges[ei]
		}
		comps = append(comps, &SubGraph{Edges: edges})
	}
	return comps
}

// Clone returns a deep copy.
func (s *SubGraph) Clone() *SubGraph {
	edges := make([]Edge, len(s.Edges))
	copy(edges, s.Edges)
	return &SubGraph{Edges: edges}
}

// String renders the edge list using raw IDs; Format renders names.
func (s *SubGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "subgraph{%d edges:", len(s.Edges))
	for _, e := range s.Edges {
		fmt.Fprintf(&b, " (%d-%d->%d)", e.Src, e.Label, e.Dst)
	}
	b.WriteString("}")
	return b.String()
}

// Format renders the edge list with entity and label names from g.
func (s *SubGraph) Format(g *Graph) string {
	var b strings.Builder
	for i, e := range s.Edges {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s -%s-> %s", g.Name(e.Src), g.LabelName(e.Label), g.Name(e.Dst))
	}
	return b.String()
}
