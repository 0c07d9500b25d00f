// Package mqg discovers the weighted maximal query graph (MQG) of §III: a
// small, balanced, weakly connected subgraph of the reduced neighborhood
// graph that maximizes total edge weight while containing all query entities
// (Def. 5, Alg. 1). It also merges the MQGs of multiple query tuples into
// one re-weighted MQG (§III-D).
//
// Finding the optimal MQG is NP-hard (Thm. 1, by reduction from constrained
// Steiner network), so Alg. 1 is a greedy divide-and-conquer: the reduced
// neighborhood graph is split into a core graph (paths between query
// entities) and one individual subgraph per entity, and each part is trimmed
// independently to a balanced share of the edge budget r by scanning edges
// in descending weight order.
package mqg

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"gqbe/internal/graph"
	"gqbe/internal/stats"
)

// MQG is a discovered maximal query graph: a small weighted subgraph of the
// data graph (or, for merged MQGs, of the virtual-entity graph) containing
// all query entities.
type MQG struct {
	// Sub holds the MQG's edges. For merged multi-tuple MQGs, query
	// entities are replaced by virtual nodes (negative IDs, see
	// VirtualNode); all other node IDs are data-graph IDs.
	Sub *graph.SubGraph
	// Weights parallels Sub.Edges: the depth-discounted Eq. 8 weight for
	// single-tuple MQGs, or c·wmax (§III-D) for merged MQGs.
	Weights []float64
	// Depths parallels Sub.Edges: the Eq. 7 edge depth, clamped to ≥1.
	Depths []int
	// Tuple is the query tuple this MQG captures: data-graph node IDs for a
	// single-tuple MQG, virtual node IDs for a merged MQG.
	Tuple []graph.NodeID
}

// TotalWeight returns the sum of all edge weights (the s_score of the MQG
// itself).
func (m *MQG) TotalWeight() float64 {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	return total
}

// WeightOf returns the weight of edge e, or 0 if e is not in the MQG.
func (m *MQG) WeightOf(e graph.Edge) float64 {
	for i, x := range m.Sub.Edges {
		if x == e {
			return m.Weights[i]
		}
	}
	return 0
}

// IncidentCount returns |E(u)|: the number of MQG edges incident on u,
// used by the content-score match function (Eq. 6).
func (m *MQG) IncidentCount(u graph.NodeID) int {
	n := 0
	for _, e := range m.Sub.Edges {
		if e.Src == u || e.Dst == u {
			n++
		}
	}
	return n
}

// VirtualNode returns the virtual entity node standing for tuple slot `slot`
// (0-based) in a merged MQG. Virtual IDs are negative so they can never
// collide with data-graph nodes and never count as identical node matches
// during content scoring.
func VirtualNode(slot int) graph.NodeID { return graph.NodeID(-1 - slot) }

// IsVirtual reports whether v is a virtual entity node.
func IsVirtual(v graph.NodeID) bool { return v < 0 }

// VirtualSlot returns the tuple slot a virtual node stands for.
func VirtualSlot(v graph.NodeID) int { return int(-1 - v) }

// NodeName renders v for humans: data nodes by entity name, virtual nodes as
// w1, w2, ... as in the paper's Fig. 8.
func NodeName(g *graph.Graph, v graph.NodeID) string {
	if IsVirtual(v) {
		return fmt.Sprintf("w%d", VirtualSlot(v)+1)
	}
	return g.Name(v)
}

// DiscoverCtx runs Alg. 1 over the reduced neighborhood graph: it decomposes
// the graph into core and per-entity subgraphs, greedily trims each to a
// balanced share of the edge budget r, unions the results, and re-weights
// the surviving edges with the depth-discounted Eq. 8. Alg. 1's cost grows
// with the reduced neighborhood, so the weighting and trimming phases check
// ctx between scans; the largest uncancellable chunk is one pass over the
// reduced edges.
func DiscoverCtx(ctx context.Context, st *stats.Stats, reduced *graph.SubGraph, tuple []graph.NodeID, r int) (*MQG, error) {
	if len(tuple) == 0 {
		return nil, errors.New("mqg: empty query tuple")
	}
	if r < 1 {
		return nil, fmt.Errorf("mqg: target size r = %d, need ≥ 1", r)
	}
	if reduced == nil || reduced.NumEdges() == 0 {
		return nil, errors.New("mqg: empty reduced neighborhood graph")
	}
	if !reduced.ContainsAll(tuple) {
		return nil, errors.New("mqg: reduced neighborhood graph does not contain all query entities")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	weights := make([]float64, len(reduced.Edges))
	for i, e := range reduced.Edges {
		weights[i] = st.Weight(e) // Eq. 2 while discovering
	}
	f := newFrame(reduced.Edges, weights, tuple)
	lt := f.locals(tuple)
	idx, err := f.discoverWeighted(ctx, lt, r)
	if err != nil {
		return nil, err
	}
	m := &MQG{Sub: f.subGraph(idx), Tuple: append([]graph.NodeID(nil), tuple...)}
	m.Depths = f.edgeDepths(idx, lt)
	m.Weights = make([]float64, len(idx))
	for i, e := range m.Sub.Edges {
		m.Weights[i] = st.DepthWeight(e, m.Depths[i]) // Eq. 8 for scoring
	}
	return m, nil
}

// frame numbers a weighted subgraph's nodes with dense local ids — their
// rank in ascending NodeID order — so that Alg. 1's connectivity work runs
// on slices and one union-find. Edge sets are index lists into edges.
type frame struct {
	edges    []graph.Edge
	weights  []float64
	src, dst []int32        // each edge's local endpoints
	nodes    []graph.NodeID // local id → NodeID, ascending
	uf       graph.UnionFind
}

// newFrame numbers the endpoints of edges and the nodes of tuple.
func newFrame(edges []graph.Edge, weights []float64, tuple []graph.NodeID) *frame {
	nodes := make([]graph.NodeID, 0, 2*len(edges)+len(tuple))
	for _, e := range edges {
		nodes = append(nodes, e.Src, e.Dst)
	}
	nodes = append(nodes, tuple...)
	slices.Sort(nodes)
	f := &frame{edges: edges, weights: weights, nodes: slices.Compact(nodes)}
	ends := make([]int32, 2*len(edges))
	f.src, f.dst = ends[:len(edges)], ends[len(edges):]
	for i, e := range edges {
		f.src[i], f.dst[i] = f.local(e.Src), f.local(e.Dst)
	}
	return f
}

// local returns v's local id; v must be a node of the frame.
func (f *frame) local(v graph.NodeID) int32 {
	i, _ := slices.BinarySearch(f.nodes, v)
	return int32(i)
}

func (f *frame) locals(vs []graph.NodeID) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = f.local(v)
	}
	return out
}

// all lists every edge of the frame.
func (f *frame) all() []int32 {
	idx := make([]int32, len(f.edges))
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// subGraph copies the edges idx lists, in that order.
func (f *frame) subGraph(idx []int32) *graph.SubGraph {
	edges := make([]graph.Edge, len(idx))
	for i, ei := range idx {
		edges[i] = f.edges[ei]
	}
	return &graph.SubGraph{Edges: edges}
}

// compareEdges orders edges by identity, the deterministic tie-break of
// every weight order here.
func compareEdges(a, b graph.Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// heavierFirst orders edge indices by descending weight, then identity.
func (f *frame) heavierFirst(i, j int32) int {
	if wi, wj := f.weights[i], f.weights[j]; wi != wj {
		if wi > wj {
			return -1
		}
		return 1
	}
	return compareEdges(f.edges[i], f.edges[j])
}

// lighterFirst orders edge indices by ascending weight, then identity.
func (f *frame) lighterFirst(i, j int32) int {
	if wi, wj := f.weights[i], f.weights[j]; wi != wj {
		if wi < wj {
			return -1
		}
		return 1
	}
	return compareEdges(f.edges[i], f.edges[j])
}

// discoverWeighted is the weight-agnostic body of Alg. 1, shared by Discover
// and by Merge's trimming step: it returns the chosen edges as indices into
// the frame. ctx is checked between per-part trims.
func (f *frame) discoverWeighted(ctx context.Context, tuple []int32, r int) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parts := f.decompose(tuple)
	m := r / len(parts) // line 1 of Alg. 1: balanced per-component budget
	if m < 1 {
		m = 1
	}
	var union []int32
	for _, p := range parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		union = append(union, f.greedyTrim(p.edges, p.required, m)...)
	}
	if !f.connected(union, tuple) {
		// The decomposition argument guarantees connectivity whenever the
		// reduced graph is connected; this is a defensive fallback that
		// re-runs the greedy over the whole graph as one core.
		union = f.greedyTrim(f.all(), tuple, r)
		if !f.connected(union, tuple) {
			return nil, errors.New("mqg: could not assemble a weakly connected MQG")
		}
	}
	return union, nil
}

// connected reports whether the edges idx lists form one weakly connected
// graph that has every required node as an endpoint. No edges is not
// connected.
func (f *frame) connected(idx, required []int32) bool {
	if len(idx) == 0 {
		return false
	}
	f.uf.Reset(len(f.nodes))
	for _, ei := range idx {
		f.uf.Union(f.src[ei], f.dst[ei])
	}
	root := f.uf.Find(f.src[idx[0]])
	for _, ei := range idx {
		if f.uf.Find(f.src[ei]) != root {
			return false
		}
	}
	for _, v := range required {
		if f.uf.Find(v) != root {
			return false
		}
	}
	return true
}

// part is one unit of the divide-and-conquer: an edge set (indices into
// the frame) and the query entities (local ids) it must keep connected.
type part struct {
	edges    []int32
	required []int32
}

// decompose splits the reduced neighborhood graph into the core graph and
// one individual subgraph per query entity (§III-A). Removing the query
// entities leaves components; a component adjacent to exactly one entity
// v_i (plus its attachment edges) forms v_i's individual subgraph — its
// nodes connect to other entities only through v_i. Components adjacent to
// two or more entities, and direct entity-entity edges, form the core.
func (f *frame) decompose(tuple []int32) []part {
	n := len(f.nodes)
	// slot[v] is 1 + v's position in the tuple, 0 for a non-entity.
	slot := make([]int32, n)
	for i, v := range tuple {
		slot[v] = int32(i) + 1
	}
	// Union non-entity endpoints to get components of (reduced − entities).
	f.uf.Reset(n)
	for i, s := range f.src {
		if t := f.dst[i]; slot[s] == 0 && slot[t] == 0 {
			f.uf.Union(s, t)
		}
	}
	// sole[rep] is the one entity with an edge into the component, none if
	// no entity has one, or many.
	const none, many = -1, -2
	sole := make([]int32, n)
	for i := range sole {
		sole[i] = none
	}
	noteAdjacent := func(compNode, entity int32) {
		rep := f.uf.Find(compNode)
		switch sole[rep] {
		case none:
			sole[rep] = entity
		case entity:
		default:
			sole[rep] = many
		}
	}
	for i, s := range f.src {
		t := f.dst[i]
		srcEnt, dstEnt := slot[s] != 0, slot[t] != 0
		switch {
		case srcEnt && !dstEnt:
			noteAdjacent(t, s)
		case !srcEnt && dstEnt:
			noteAdjacent(s, t)
		}
	}
	// Assign each edge to core or to one entity's individual subgraph.
	core := part{required: tuple}
	indiv := make([]part, len(tuple))
	for i := range tuple {
		indiv[i].required = tuple[i : i+1]
	}
	for i, s := range f.src {
		t := f.dst[i]
		srcEnt, dstEnt := slot[s] != 0, slot[t] != 0
		owner := int32(none)
		switch {
		case srcEnt && dstEnt:
			// direct entity-entity edge: core by definition
		case srcEnt || dstEnt:
			comp, entity := t, s
			if dstEnt {
				comp, entity = s, t
			}
			if sole[f.uf.Find(comp)] == entity {
				owner = entity
			}
		default:
			if v := sole[f.uf.Find(s)]; v >= 0 {
				owner = v
			}
		}
		if owner != none {
			j := slot[owner] - 1
			indiv[j].edges = append(indiv[j].edges, int32(i))
		} else {
			core.edges = append(core.edges, int32(i))
		}
	}
	parts := make([]part, 0, len(tuple)+1)
	if len(core.edges) > 0 {
		parts = append(parts, core)
	}
	for _, p := range indiv {
		if len(p.edges) > 0 {
			parts = append(parts, p)
		}
	}
	return parts
}

// greedyTrim is the greedy search of Alg. 1 lines 7–21 over the edges idx
// lists: scan edges in descending weight order, maintaining weakly
// connected components incrementally, and return M_s — the component
// containing all required entities — for the smallest s with |E(M_s)| = m;
// failing an exact hit, the largest size below m; failing that, the
// smallest size above m. |E(M_s)| is monotone nondecreasing in s, so one
// forward scan suffices. M_s is returned in scan order; it is empty when
// the required entities never connect.
func (f *frame) greedyTrim(idx, required []int32, m int) []int32 {
	order := slices.Clone(idx)
	slices.SortFunc(order, f.heavierFirst)

	// Required nodes are singletons of the forest from the start, so
	// connectivity checks see them even before any of their edges arrive.
	uf := &f.uf
	uf.Reset(len(f.nodes))
	sExact, sBelow, sAbove := -1, -1, -1
	sizeBelow := -1
	for s := 1; s <= len(order); s++ {
		ei := order[s-1]
		uf.AddEdge(f.src[ei], f.dst[ei])
		if !uf.AllSameSet(required) {
			continue
		}
		size := uf.EdgeCount(required[0])
		switch {
		case size == m:
			sExact = s
		case size < m:
			if size > sizeBelow {
				sizeBelow = size
				sBelow = s
			}
		case size > m:
			sAbove = s
		}
		if sExact >= 0 || sAbove >= 0 {
			break
		}
	}
	s := sExact
	if s < 0 {
		if sBelow >= 0 {
			s = sBelow
		} else {
			s = sAbove
		}
	}
	if s < 0 {
		// Required nodes never became connected; emit nothing.
		return nil
	}
	// Rebuild the component at exactly s edges and extract M_s.
	uf.Reset(len(f.nodes))
	for _, ei := range order[:s] {
		uf.AddEdge(f.src[ei], f.dst[ei])
	}
	root := uf.Find(required[0])
	ms := order[:0]
	for _, ei := range order[:s] {
		if uf.Find(f.src[ei]) == root {
			ms = append(ms, ei)
		}
	}
	// The s2 case ("smallest size above m") can overshoot badly when the
	// final edge merges two already-large components — for multi-entity
	// cores the jump can be several times m, which makes the query lattice
	// intractable downstream. Def. 5 asks for exactly m edges, so prune
	// back: repeatedly drop the lightest edge whose removal keeps the
	// required entities weakly connected (discarding any fragment that
	// splits off), until the budget is met.
	if len(ms) > m {
		ms = f.pruneBack(ms, required, m)
	}
	return ms
}

// pruneBack trims ms to at most m edges by reverse greedy deletion: at each
// step the lightest edge whose removal leaves the required entities in one
// weakly connected component is deleted (together with any fragment the
// deletion disconnects). If no edge is removable (every deletion would
// disconnect a required entity), the current graph is returned as is.
func (f *frame) pruneBack(ms, required []int32, m int) []int32 {
	// Candidates in ascending weight order; the order of the surviving
	// edges never changes, so one sort serves every step.
	byWeight := slices.Clone(ms)
	slices.SortFunc(byWeight, f.lighterFirst)
	in := make([]bool, len(f.edges))
	for _, ei := range ms {
		in[ei] = true
	}
	cur := ms
	for removed := true; removed && len(cur) > m; {
		removed = false
		for _, cand := range byWeight {
			if in[cand] {
				if cur, removed = f.withoutEdge(cur, cand, required, in); removed {
					break
				}
			}
		}
	}
	return cur
}

// withoutEdge reports whether cur without edge cand still has an edge at
// required[0] and keeps every required node in its component. If so, it
// filters cur in place to that component and updates in to match.
func (f *frame) withoutEdge(cur []int32, cand int32, required []int32, in []bool) ([]int32, bool) {
	f.uf.Reset(len(f.nodes))
	incident := false
	for _, ei := range cur {
		if ei == cand {
			continue
		}
		s, t := f.src[ei], f.dst[ei]
		f.uf.Union(s, t)
		incident = incident || s == required[0] || t == required[0]
	}
	if !incident || !f.uf.AllSameSet(required) {
		return cur, false
	}
	root := f.uf.Find(required[0])
	next := cur[:0]
	for _, ei := range cur {
		in[ei] = ei != cand && f.uf.Find(f.src[ei]) == root
		if in[ei] {
			next = append(next, ei)
		}
	}
	return next, true
}

// edgeDepths computes the Eq. 7 depth of every edge idx lists: the
// smallest hop distance from either endpoint to any query entity within
// those edges, clamped to ≥1 (edges incident on an entity have raw depth 0;
// the clamp keeps Eq. 8 finite and gives them maximum weight). An endpoint
// no entity reaches counts as depth 0.
func (f *frame) edgeDepths(idx, tuple []int32) []int {
	dist := make([]int32, len(f.nodes))
	for i := range dist {
		dist[i] = -1
	}
	for _, v := range tuple {
		dist[v] = 0
	}
	// Level-synchronous BFS: an MQG is a few dozen edges at most.
	for level, grew := int32(0), true; grew; level++ {
		grew = false
		for _, ei := range idx {
			s, t := f.src[ei], f.dst[ei]
			if dist[s] == level && dist[t] < 0 {
				dist[t], grew = level+1, true
			}
			if dist[t] == level && dist[s] < 0 {
				dist[s], grew = level+1, true
			}
		}
	}
	depths := make([]int, len(idx))
	for i, ei := range idx {
		depths[i] = int(max(min(dist[f.src[ei]], dist[f.dst[ei]]), 1))
	}
	return depths
}
