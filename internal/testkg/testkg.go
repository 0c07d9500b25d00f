// Package testkg builds small hand-written knowledge graphs used by tests
// across the repository. Fig1 reconstructs the running example of the paper
// (Fig. 1): founders, their companies, head-quarter cities in California, and
// assorted biographical edges.
package testkg

import (
	"fmt"

	"gqbe/internal/graph"
)

// Fig1 returns a data graph modeled on the paper's Fig. 1 excerpt. The query
// tuple ⟨Jerry Yang, Yahoo!⟩ over this graph should yield founder/company
// answers such as ⟨Steve Wozniak, Apple Inc.⟩ and ⟨Sergey Brin, Google⟩.
func Fig1() *graph.Graph {
	g := graph.New()
	for _, t := range Fig1Triples() {
		g.AddEdge(t[0], t[1], t[2])
	}
	g.SortAdjacency()
	return g
}

// Fig1Triples returns the (subject, predicate, object) triples of the Fig. 1
// excerpt, for tests that exercise the triple loader as well.
func Fig1Triples() [][3]string {
	return [][3]string{
		{"Jerry Yang", "founded", "Yahoo!"},
		{"David Filo", "founded", "Yahoo!"},
		{"Jerry Yang", "education", "Stanford"},
		{"Sergey Brin", "education", "Stanford"},
		{"Larry Page", "education", "Stanford"},
		{"Jerry Yang", "places_lived", "San Jose"},
		{"Steve Wozniak", "places_lived", "San Jose"},
		{"Jerry Yang", "nationality", "USA"},
		{"Steve Wozniak", "nationality", "USA"},
		{"Sergey Brin", "nationality", "USA"},
		{"Bill Gates", "nationality", "USA"},
		{"Yahoo!", "headquartered_in", "Sunnyvale"},
		{"Apple Inc.", "headquartered_in", "Cupertino"},
		{"Google", "headquartered_in", "Mountain View"},
		{"Microsoft", "headquartered_in", "Redmond"},
		{"Steve Wozniak", "founded", "Apple Inc."},
		{"Steve Jobs", "founded", "Apple Inc."},
		{"Sergey Brin", "founded", "Google"},
		{"Larry Page", "founded", "Google"},
		{"Bill Gates", "founded", "Microsoft"},
		{"Sunnyvale", "located_in", "California"},
		{"Cupertino", "located_in", "California"},
		{"Mountain View", "located_in", "California"},
		{"San Jose", "located_in", "California"},
		{"Stanford", "located_in", "California"},
		{"Redmond", "located_in", "Washington"},
		{"California", "located_in", "USA"},
		{"Washington", "located_in", "USA"},
	}
}

// Fig1Padded returns the Fig. 1 graph plus background entities that give
// the edge labels realistic relative frequencies: `founded` stays rare (and
// thus heavy under Eq. 2/3) while places_lived / education / nationality /
// located_in / headquartered_in become common. The bare 28-edge excerpt has
// degenerate statistics — places_lived occurs twice, making a geographic
// chain outweigh the founded edge — so ranking-sensitive tests use this
// fixture, as the paper's examples implicitly assume Freebase-scale label
// frequencies.
func Fig1Padded() *graph.Graph {
	g := graph.New()
	for _, t := range Fig1Triples() {
		g.AddEdge(t[0], t[1], t[2])
	}
	cities := []string{"San Jose", "Sunnyvale", "Cupertino", "Mountain View", "Redmond", "Oakland", "Fresno"}
	for i := 0; i < 18; i++ {
		p := fmt.Sprintf("Resident %d", i+1)
		g.AddEdge(p, "places_lived", cities[i%len(cities)])
		g.AddEdge(p, "nationality", "USA")
		if i%2 == 0 {
			g.AddEdge(p, "education", "Stanford")
		} else {
			g.AddEdge(p, "education", "Berkeley")
		}
	}
	for i := 0; i < 8; i++ {
		c := fmt.Sprintf("Startup %d", i+1)
		g.AddEdge(c, "headquartered_in", cities[i%len(cities)])
	}
	g.AddEdge("Oakland", "located_in", "California")
	g.AddEdge("Fresno", "located_in", "California")
	g.AddEdge("Berkeley", "located_in", "California")
	g.SortAdjacency()
	return g
}

// Tuple resolves entity names to node IDs in g, panicking on unknown names.
func Tuple(g *graph.Graph, names ...string) []graph.NodeID {
	ids := make([]graph.NodeID, len(names))
	for i, n := range names {
		ids[i] = g.MustNode(n)
	}
	return ids
}

// Names maps node IDs back to entity names.
func Names(g *graph.Graph, ids []graph.NodeID) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = g.Name(id)
	}
	return names
}

// Distances returns the hop distances within s from the seed nodes,
// treating edges as undirected; seeds are at distance 0 even when no edge
// touches them. It is a plain-map oracle for the flat traversals.
func Distances(s *graph.SubGraph, seeds []graph.NodeID) map[graph.NodeID]int {
	adj := s.Adjacency()
	dist := make(map[graph.NodeID]int, len(adj))
	var queue []graph.NodeID
	for _, v := range seeds {
		if _, ok := dist[v]; !ok {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, ei := range adj[v] {
			for _, u := range [2]graph.NodeID{s.Edges[ei].Src, s.Edges[ei].Dst} {
				if _, ok := dist[u]; !ok {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return dist
}

// WeaklyConnected reports whether s has edges, is weakly connected, and
// has every node of required as an endpoint.
func WeaklyConnected(s *graph.SubGraph, required []graph.NodeID) bool {
	if len(s.Edges) == 0 || !s.ContainsAll(required) {
		return false
	}
	dist := Distances(s, []graph.NodeID{s.Edges[0].Src})
	for _, e := range s.Edges {
		if _, ok := dist[e.Src]; !ok {
			return false
		}
	}
	return true
}
