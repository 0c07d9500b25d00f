// Package neighborhood extracts the neighborhood graph H_t of a query tuple
// (Def. 1) and reduces it to H'_t by removing "unimportant" edges (§III-C).
//
// H_t contains every node reachable from a query entity by an undirected
// path of at most d edges, and the edges on those paths. The reduction
// removes, per node, edges that duplicate the label and orientation of an
// "important" edge (one lying on a short path to a query entity) without
// themselves lying on such a path — e.g. the thousands of other `education`
// edges into Stanford when only Jerry Yang's matters. Theorem 2 guarantees
// the reduced graph still weakly connects all query entities.
package neighborhood

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"gqbe/internal/graph"
)

// cancelCheckInterval is how many nodes/edges a scan processes between
// context checks; matches the granularity the join executor uses.
const cancelCheckInterval = 4096

// ErrDisconnected is returned when the query entities are not weakly
// connected within the path-length threshold, i.e. no neighborhood graph
// component contains all of them and the query can have no answers.
var ErrDisconnected = errors.New("neighborhood: query entities are not connected within the path-length threshold")

// Result bundles the artifacts of neighborhood extraction for one tuple.
type Result struct {
	// Ht is the full neighborhood graph of Def. 1.
	Ht *graph.SubGraph
	// Reduced is H'_t: the weakly connected component of Ht, after
	// unimportant-edge removal, that contains all query entities.
	Reduced *graph.SubGraph
	// Dist holds, for every node of Ht, its shortest undirected hop
	// distance from the nearest query entity (query entities are at 0).
	Dist *graph.DistMap

	x *extraction // the pooled working state Dist belongs to
}

// Release returns the result's distance table and working state to the
// extraction pool. Call it once discovery is done with the result; Dist
// must not be read after. Releasing is optional — an unreleased table is
// simply garbage.
func (r *Result) Release() {
	if r.x != nil {
		pool.Put(r.x)
		r.x, r.Dist = nil, nil
	}
}

// extraction is one extraction's working state over dense local ids: H_t's
// nodes are numbered by their BFS visit position in dist, so the query
// entities are 0..k−1 in tuple order. It is recycled whole through pool:
// the distance table is two NumNodes-sized arrays, and allocating (and
// zeroing) them per query would defeat the O(1) epoch Reset they were built
// around; the other buffers ride along, so a warm extraction allocates
// little beyond the edge lists it returns.
type extraction struct {
	dist *graph.DistMap
	// edges is H_t in first-occurrence order; src and dst hold each edge's
	// local endpoints and flags its IE and unimportance bits.
	edges    []graph.Edge
	src, dst []int32
	flags    []uint8
	// off and adj are H_t's adjacency in CSR form: adj[off[v]:off[v+1]]
	// are the indices of the edges incident on local node v.
	off, adj []int32
	// avoid holds one row of n distances per query entity: hop distances
	// within H_t from the other entities over paths that avoid it, −1 where
	// unreached.
	avoid []int32
	queue []int32
	// labelMark[2·label+out] == mark while the node being scanned has an
	// IE edge of that label and orientation.
	labelMark []uint32
	mark      uint32
	inComp    []bool
}

// Edge flags.
const (
	ieSrc       uint8 = 1 << iota // in IE(Src)
	ieDst                         // in IE(Dst)
	unimportant                   // in UE(Src) or UE(Dst)
)

// pool recycles extractions between queries. Extractions over a
// different-sized graph are dropped on Get.
var pool sync.Pool

func getExtraction(numNodes int) *extraction {
	if v := pool.Get(); v != nil {
		if x := v.(*extraction); x.dist.Size() == numNodes {
			return x
		}
	}
	return &extraction{dist: graph.NewDistMap(numNodes)}
}

// resize returns s with length n, reallocating only when it is too short.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ExtractCtx builds H_t and H'_t for the query tuple over data graph g with
// path-length threshold d, under a cancellation context. Extraction cost grows
// with the d-hop neighborhood (the whole graph, for hub-adjacent tuples at
// larger d), so the edge and reduction scans check ctx periodically; the
// largest uncancellable chunk is one BFS distance pass.
func ExtractCtx(ctx context.Context, g *graph.Graph, tuple []graph.NodeID, d int) (*Result, error) {
	if len(tuple) == 0 {
		return nil, errors.New("neighborhood: empty query tuple")
	}
	if d < 1 {
		return nil, fmt.Errorf("neighborhood: path-length threshold d = %d, need ≥ 1", d)
	}
	for _, v := range tuple {
		if int(v) < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("neighborhood: query entity %d out of range", v)
		}
	}
	seen := make(map[graph.NodeID]bool, len(tuple))
	for _, v := range tuple {
		if seen[v] {
			return nil, fmt.Errorf("neighborhood: duplicate query entity %q", g.Name(v))
		}
		seen[v] = true
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	x := getExtraction(g.NumNodes())
	g.UndirectedDistancesInto(x.dist, tuple, d)
	ht, err := x.extractEdges(ctx, g, d)
	if err != nil {
		pool.Put(x)
		return nil, err
	}
	reduced, err := x.reduce(ctx, g, tuple, d)
	if err != nil {
		// Canceled and disconnected extractions are the common tail under
		// load; the borrowed state goes back to the pool on those paths
		// too, not just via Result.Release.
		pool.Put(x)
		return nil, err
	}
	return &Result{Ht: ht, Reduced: reduced, Dist: x.dist, x: x}, nil
}

// extractEdges realizes Def. 1 from BFS distances: a node is in V(H_t) iff
// dist ≤ d; an edge (u,v) is in E(H_t) iff min(dist(u), dist(v)) ≤ d−1,
// since it then lies on an undirected path of length ≤ d from a query
// entity (walk to the nearer endpoint, then cross the edge).
//
// Nodes are scanned in BFS order, each emitting its out-arcs and then its
// in-arcs. An edge is emitted once, from the endpoint visited first: every
// node visited before a scanned node is within d−1 too and has emitted its
// edges already. The data graph holds no duplicate edges, so the list needs
// no deduplication.
func (x *extraction) extractEdges(ctx context.Context, g *graph.Graph, d int) (*graph.SubGraph, error) {
	reached, depth := x.dist.Reached(), x.dist.Dists()
	x.edges, x.src, x.dst = x.edges[:0], x.src[:0], x.dst[:0]
	for i, v := range reached {
		if i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if int(depth[i]) > d-1 {
			break // BFS order: every later node is at distance d
		}
		// Every neighbor of a node at distance ≤ d−1 is itself at distance
		// ≤ d, so it has a local id.
		out := g.OutArcs(v)
		for j, far := range out.Nodes {
			if p, _ := x.dist.Index(far); p >= i {
				x.emit(graph.Edge{Src: v, Label: out.Labels[j], Dst: far}, int32(i), int32(p))
			}
		}
		in := g.InArcs(v)
		for j, far := range in.Nodes {
			// p == i is a self-loop, already emitted as an out-arc.
			if p, _ := x.dist.Index(far); p > i {
				x.emit(graph.Edge{Src: far, Label: in.Labels[j], Dst: v}, int32(p), int32(i))
			}
		}
	}
	return &graph.SubGraph{Edges: slices.Clone(x.edges)}, nil
}

func (x *extraction) emit(e graph.Edge, src, dst int32) {
	x.edges = append(x.edges, e)
	x.src = append(x.src, src)
	x.dst = append(x.dst, dst)
}

// buildAdjacency fills off and adj for H_t's n local nodes; each node's
// incident edges are listed in edge order, a self-loop once.
func (x *extraction) buildAdjacency(n int) {
	x.off = resize(x.off, n+1)
	clear(x.off)
	for i, s := range x.src {
		x.off[s+1]++
		if t := x.dst[i]; t != s {
			x.off[t+1]++
		}
	}
	for v := 1; v <= n; v++ {
		x.off[v] += x.off[v-1]
	}
	x.adj = resize(x.adj, int(x.off[n]))
	next := resize(x.queue, n)
	copy(next, x.off[:n])
	for i, s := range x.src {
		x.adj[next[s]] = int32(i)
		next[s]++
		if t := x.dst[i]; t != s {
			x.adj[next[t]] = int32(i)
			next[t]++
		}
	}
	x.queue = next
}

// avoidBFS fills row with hop distances within H_t from the query entities
// other than local node a, over paths that never enter a, up to maxDepth;
// −1 marks the unreached.
func (x *extraction) avoidBFS(row []int32, k int, a, maxDepth int32) {
	for i := range row {
		row[i] = -1
	}
	q := x.queue[:0]
	for j := int32(0); j < int32(k); j++ {
		if j != a {
			row[j] = 0
			q = append(q, j)
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		if row[v] == maxDepth {
			continue
		}
		for _, ei := range x.adj[x.off[v]:x.off[v+1]] {
			for _, u := range [2]int32{x.src[ei], x.dst[ei]} {
				if u != a && row[u] < 0 {
					row[u] = row[v] + 1
					q = append(q, u)
				}
			}
		}
	}
	x.queue = q
}

// reduce removes unimportant edges from ht and returns the weakly connected
// component containing all query entities.
//
// For e = (u, v): e ∈ IE(x) for endpoint x iff there is an undirected path
// of length ≤ d between x and a query entity whose first edge is e — the
// path crosses to the far endpoint and continues to an entity WITHOUT
// revisiting x (Def. of IE in §III-C; paths are simple). The "no revisit"
// clause matters precisely at the query entities: the far endpoint of any
// entity-incident edge is trivially at BFS distance 1 via the entity
// itself, and ignoring the clause would make every such edge important,
// letting fan edges (co-winners of an award, other students of the
// university) flood the reduced graph. For an entity endpoint x we
// therefore use a BFS that avoids x and the trivial target x; for
// non-entity x the plain BFS distance is exact at d=2 (a node at distance
// 1 is adjacent to an entity directly, never through a non-entity x) and a
// close over-approximation for larger d.
//
// e ∈ UE(x) iff e ∉ IE(x) and some e' ∈ IE(x) shares e's label and
// orientation at x. An edge is unimportant iff it is in UE(u) or UE(v).
func (x *extraction) reduce(ctx context.Context, g *graph.Graph, tuple []graph.NodeID, d int) (*graph.SubGraph, error) {
	n, k := len(x.dist.Reached()), len(tuple)
	if err := x.markUnimportant(ctx, g, n, k, d); err != nil {
		return nil, err
	}
	comp := x.component(n, k, true)
	if comp == nil && k > 1 {
		// Theorem 2 keeps the entities connected when every pair of them is
		// joined by a path of length ≤ d: such paths' edges are IE from both
		// ends. An entity reachable from the others only by longer paths can
		// lose its link (TestReduceFallbackLongPathEntity); keep all of H_t's
		// component then rather than failing the query.
		comp = x.component(n, k, false)
	}
	if comp == nil {
		if k == 1 {
			// A single entity with no incident kept edge: the tuple is
			// isolated within d, so no neighborhood exists.
			return nil, fmt.Errorf("%w: %q has no neighborhood edges", ErrDisconnected, g.Name(tuple[0]))
		}
		return nil, ErrDisconnected
	}
	return &graph.SubGraph{Edges: comp}, nil
}

// markUnimportant sets the IE bits of every H_t edge and then the
// unimportant bit of those in UE of an endpoint.
func (x *extraction) markUnimportant(ctx context.Context, g *graph.Graph, n, k, d int) error {
	x.buildAdjacency(n)
	// One avoid-entity distance row per entity — all are consulted during
	// the edge pass below.
	x.avoid = resize(x.avoid, k*n)
	for a := 0; a < k; a++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		x.avoidBFS(x.avoid[a*n:(a+1)*n], k, int32(a), int32(d-1))
	}
	depth := x.dist.Dists()
	reaches := func(from, avoiding int32) bool {
		if int(avoiding) < k {
			dd := x.avoid[int(avoiding)*n+int(from)]
			return dd >= 0 && int(dd)+1 <= d
		}
		return int(depth[from]) <= d-1
	}
	// Pass 1: IE membership from both endpoints. From Src's perspective the
	// path crosses to Dst and continues.
	x.flags = resize(x.flags, len(x.edges))
	for i, s := range x.src {
		if i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t := x.dst[i]
		var f uint8
		if int(t) < k || reaches(t, s) {
			f |= ieSrc
		}
		if int(s) < k || reaches(s, t) {
			f |= ieDst
		}
		x.flags[i] = f
	}
	// Pass 2, per node: mark the label/orientation signature of its IE
	// edges, then flag its non-IE edges that share one.
	if len(x.labelMark) < 2*g.NumLabels() {
		x.labelMark = make([]uint32, 2*g.NumLabels())
		x.mark = 0
	}
	for v := int32(0); v < int32(n); v++ {
		if v%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		x.mark++
		if x.mark == 0 {
			clear(x.labelMark)
			x.mark = 1
		}
		inc := x.adj[x.off[v]:x.off[v+1]]
		for _, ei := range inc {
			l, f := 2*int(x.edges[ei].Label), x.flags[ei]
			if x.src[ei] == v && f&ieSrc != 0 {
				x.labelMark[l+1] = x.mark
			}
			if x.dst[ei] == v && f&ieDst != 0 {
				x.labelMark[l] = x.mark
			}
		}
		for _, ei := range inc {
			l, f := 2*int(x.edges[ei].Label), x.flags[ei]
			if (x.src[ei] == v && f&ieSrc == 0 && x.labelMark[l+1] == x.mark) ||
				(x.dst[ei] == v && f&ieDst == 0 && x.labelMark[l] == x.mark) {
				x.flags[ei] |= unimportant
			}
		}
	}
	return nil
}

// component returns, in H_t order, the edges of the weakly connected
// component that contains all k query entities — over the edges not marked
// unimportant when keptOnly is set, else over all of H_t. It returns nil
// when the first entity has no such incident edge or some entity lies in
// another component.
func (x *extraction) component(n, k int, keptOnly bool) []graph.Edge {
	skip := func(ei int32) bool { return keptOnly && x.flags[ei]&unimportant != 0 }
	x.inComp = resize(x.inComp, n)
	clear(x.inComp)
	x.inComp[0] = true
	stack := append(x.queue[:0], 0)
	incident := false
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range x.adj[x.off[v]:x.off[v+1]] {
			if skip(ei) {
				continue
			}
			incident = true
			for _, u := range [2]int32{x.src[ei], x.dst[ei]} {
				if !x.inComp[u] {
					x.inComp[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	x.queue = stack
	if !incident || slices.Contains(x.inComp[:k], false) {
		return nil
	}
	size := 0
	for i, s := range x.src {
		if x.inComp[s] && !skip(int32(i)) {
			size++
		}
	}
	comp := make([]graph.Edge, 0, size)
	for i, s := range x.src {
		if x.inComp[s] && !skip(int32(i)) {
			comp = append(comp, x.edges[i])
		}
	}
	return comp
}
