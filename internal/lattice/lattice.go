// Package lattice models the answer space of §IV: the partially ordered set
// of query graphs — weakly connected subgraphs of the maximal query graph
// that contain all query entities — under the subgraph-supergraph relation
// (Def. 6). Each query graph is a bitset over the MQG's edge indices, as in
// the paper's own implementation ("represented using bit vectors", §V-C).
//
// The lattice's bottom elements are the minimal query trees (Def. 7),
// enumerated by generating spanning trees of the MQG and trimming non-entity
// leaves; its top element is the MQG itself. Nodes are generated lazily by
// the search in internal/topk via Parents and Children.
package lattice

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"gqbe/internal/graph"
	"gqbe/internal/mqg"
)

// MaxEdges is the largest MQG the lattice supports; Alg. 1 targets r≈15
// edges, so a 64-bit set is ample. It is 63, not 64, so that a connected
// MQG's nodes fit one 64-bit set as well: internal/scoring keys content
// scores by a per-node match mask.
const MaxEdges = 63

// maxNodes is the most distinct MQG nodes the lattice supports, the node
// count of a connected MQG at MaxEdges. Only a disconnected MQG can exceed
// it within the edge cap.
const maxNodes = MaxEdges + 1

// EdgeSet is a query graph: bit i set means edge i of the MQG is present.
type EdgeSet uint64

// Bit returns the singleton set {i}.
func Bit(i int) EdgeSet { return EdgeSet(1) << uint(i) }

// Has reports whether edge i is in the set.
func (q EdgeSet) Has(i int) bool { return q&Bit(i) != 0 }

// Count returns the number of edges in the set.
func (q EdgeSet) Count() int { return bits.OnesCount64(uint64(q)) }

// Subsumes reports whether q is a supergraph of (or equal to) p.
func (q EdgeSet) Subsumes(p EdgeSet) bool { return p&^q == 0 }

// Lattice holds the MQG-derived structures shared by all query graphs.
type Lattice struct {
	M *mqg.MQG

	n    int     // number of MQG edges
	full EdgeSet // the MQG itself (root of the lattice)

	nodes    []graph.NodeID       // distinct MQG nodes
	nodeIdx  map[graph.NodeID]int // node → index into nodes
	srcIdx   []int                // per edge: index of Src in nodes
	dstIdx   []int                // per edge: index of Dst in nodes
	entities []int                // node indices of the query entities
	incident []EdgeSet            // per node index: edges touching it

	minimalTrees []EdgeSet
}

// NewCtx builds the lattice scaffolding for m and enumerates its minimal
// query trees under a cancellation context. Minimal-tree enumeration visits
// every spanning tree of the MQG — worst-case exponential in the edge budget
// — so it checks ctx periodically and aborts with the context's error.
func NewCtx(ctx context.Context, m *mqg.MQG) (*Lattice, error) {
	n := len(m.Sub.Edges)
	if n == 0 {
		return nil, errors.New("lattice: MQG has no edges")
	}
	if n > MaxEdges {
		return nil, fmt.Errorf("lattice: MQG has %d edges, max %d", n, MaxEdges)
	}
	l := &Lattice{M: m, n: n, full: (EdgeSet(1) << uint(n)) - 1, nodeIdx: make(map[graph.NodeID]int)}
	idx := func(v graph.NodeID) int {
		if i, ok := l.nodeIdx[v]; ok {
			return i
		}
		i := len(l.nodes)
		l.nodes = append(l.nodes, v)
		l.nodeIdx[v] = i
		l.incident = append(l.incident, 0)
		return i
	}
	for i, e := range m.Sub.Edges {
		si, di := idx(e.Src), idx(e.Dst)
		l.srcIdx = append(l.srcIdx, si)
		l.dstIdx = append(l.dstIdx, di)
		l.incident[si] |= Bit(i)
		l.incident[di] |= Bit(i)
	}
	if len(l.nodes) > maxNodes {
		return nil, fmt.Errorf("lattice: MQG has %d nodes, max %d", len(l.nodes), maxNodes)
	}
	for _, v := range m.Tuple {
		i, ok := l.nodeIdx[v]
		if !ok {
			return nil, fmt.Errorf("lattice: query entity %d not in MQG", v)
		}
		l.entities = append(l.entities, i)
	}
	trees, err := l.enumerateMinimalTrees(ctx)
	if err != nil {
		return nil, err
	}
	l.minimalTrees = trees
	if len(l.minimalTrees) == 0 {
		return nil, errors.New("lattice: no minimal query trees (MQG does not connect the query entities)")
	}
	return l, nil
}

// NumEdges returns the number of MQG edges.
func (l *Lattice) NumEdges() int { return l.n }

// Full returns the root of the lattice: the MQG itself.
func (l *Lattice) Full() EdgeSet { return l.full }

// MinimalTrees returns the lattice's bottom elements (Def. 7). The slice is
// owned by the lattice.
func (l *Lattice) MinimalTrees() []EdgeSet { return l.minimalTrees }

// SScore returns s_score(Q): the total weight of Q's edges (Eq. 5).
func (l *Lattice) SScore(q EdgeSet) float64 {
	total := 0.0
	for r := q; r != 0; r &= r - 1 {
		total += l.M.Weights[bits.TrailingZeros64(uint64(r))]
	}
	return total
}

// SubGraph materializes the edge set as a graph.SubGraph.
func (l *Lattice) SubGraph(q EdgeSet) *graph.SubGraph {
	var edges []graph.Edge
	for r := q; r != 0; r &= r - 1 {
		edges = append(edges, l.M.Sub.Edges[bits.TrailingZeros64(uint64(r))])
	}
	return graph.NewSubGraph(edges)
}

// EdgeIndices returns the indices of the edges in q, ascending.
func (l *Lattice) EdgeIndices(q EdgeSet) []int {
	var out []int
	for r := q; r != 0; r &= r - 1 {
		out = append(out, bits.TrailingZeros64(uint64(r)))
	}
	return out
}

// nodesOf returns a bitmask (over node indices) of the endpoints of q.
func (l *Lattice) nodesOf(q EdgeSet) uint64 {
	var m uint64
	for r := q; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(uint64(r))
		m |= 1<<uint(l.srcIdx[i]) | 1<<uint(l.dstIdx[i])
	}
	return m
}

// IsValid reports whether q is a query graph: non-empty, weakly connected,
// and containing every query entity (Def. 2 restricted to the MQG).
func (l *Lattice) IsValid(q EdgeSet) bool {
	if q == 0 || q&^l.full != 0 {
		return false
	}
	present := l.nodesOf(q)
	for _, ei := range l.entities {
		if present&(1<<uint(ei)) == 0 {
			return false
		}
	}
	return l.connectedFrom(q, l.entities[0]) == q
}

// connectedFrom returns the set of q's edges reachable from node index
// start, treating edges as undirected.
func (l *Lattice) connectedFrom(q EdgeSet, start int) EdgeSet {
	var reachedNodes uint64 = 1 << uint(start)
	var reachedEdges EdgeSet
	for {
		grew := false
		for r := q &^ reachedEdges; r != 0; r &= r - 1 {
			i := bits.TrailingZeros64(uint64(r))
			sm := uint64(1) << uint(l.srcIdx[i])
			dm := uint64(1) << uint(l.dstIdx[i])
			if reachedNodes&(sm|dm) != 0 {
				reachedEdges |= Bit(i)
				reachedNodes |= sm | dm
				grew = true
			}
		}
		if !grew {
			return reachedEdges
		}
	}
}

// ComponentContaining returns the weakly connected component of q containing
// all query entities, or 0 if no single component does. This is the Q_sub
// step of Alg. 3.
func (l *Lattice) ComponentContaining(q EdgeSet) EdgeSet {
	if q == 0 {
		return 0
	}
	comp := l.connectedFrom(q, l.entities[0])
	if comp == 0 {
		return 0
	}
	present := l.nodesOf(comp)
	for _, ei := range l.entities {
		if present&(1<<uint(ei)) == 0 {
			return 0
		}
	}
	return comp
}

// Parents returns the query graphs one edge above q in the lattice: q plus
// one MQG edge incident on q's node set (adding a detached edge would break
// weak connectivity). Results are ascending by edge index.
func (l *Lattice) Parents(q EdgeSet) []EdgeSet {
	present := l.nodesOf(q)
	var out []EdgeSet
	for r := l.full &^ q; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(uint64(r))
		if present&(1<<uint(l.srcIdx[i])|1<<uint(l.dstIdx[i])) != 0 {
			out = append(out, q|Bit(i))
		}
	}
	return out
}

// Children returns the query graphs one edge below q: q minus one edge,
// where the remainder is still a valid query graph.
func (l *Lattice) Children(q EdgeSet) []EdgeSet {
	var out []EdgeSet
	for r := q; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(uint64(r))
		c := q &^ Bit(i)
		if l.IsValid(c) {
			out = append(out, c)
		}
	}
	return out
}

// enumerateMinimalTrees generates the minimal query trees (Def. 7). For a
// single-entity tuple they are the individual edges incident on the entity;
// otherwise every spanning tree of the MQG is enumerated by backtracking and
// trimmed by repeatedly deleting degree-1 non-entity nodes, and the distinct
// results are collected (§IV-A).
func (l *Lattice) enumerateMinimalTrees(ctx context.Context) ([]EdgeSet, error) {
	if len(l.entities) == 1 {
		var out []EdgeSet
		for r := l.incident[l.entities[0]]; r != 0; r &= r - 1 {
			out = append(out, Bit(bits.TrailingZeros64(uint64(r))))
		}
		return out, nil
	}
	// Dedupe with a map but collect in first-seen order: the sort below
	// already makes the result order-independent, but iterating the map
	// would still hand a nondeterministically-ordered slice to any future
	// code inserted before the sort — keep the whole path deterministic.
	distinct := make(map[EdgeSet]bool)
	var out []EdgeSet
	err := l.spanningTrees(ctx, func(tree []int) error {
		q := l.trim(tree)
		if q != 0 && !distinct[q] {
			distinct[q] = true
			out = append(out, q)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// spanningTrees enumerates all spanning trees of the MQG by backtracking
// over edges in index order, maintaining a union-find to reject cycles. A
// non-nil error from emit aborts the enumeration and is returned. ctx is
// checked on a recursion-step counter — not only at emits — because whole
// backtracking subtrees can be emit-free (a bridge edge skipped early makes
// every completion impossible) yet still exponentially large.
func (l *Lattice) spanningTrees(ctx context.Context, emit func([]int) error) error {
	nv := len(l.nodes)
	need := nv - 1
	var chosen []int
	steps := 0
	// parent array union-find with rollback via full copies: the graphs are
	// tiny (≤ MaxEdges edges, ≤ maxNodes nodes), so simplicity wins.
	var rec func(next int, parent []int, count int) error
	find := func(parent []int, x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	rec = func(next int, parent []int, count int) error {
		steps++
		if steps%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if count == need {
			return emit(chosen)
		}
		if l.n-next < need-count {
			return nil // not enough edges left
		}
		for i := next; i < l.n; i++ {
			ra, rb := find(parent, l.srcIdx[i]), find(parent, l.dstIdx[i])
			if ra == rb {
				continue // would close a cycle
			}
			np := make([]int, nv)
			copy(np, parent)
			np[ra] = rb
			chosen = append(chosen, i)
			err := rec(i+1, np, count+1)
			chosen = chosen[:len(chosen)-1]
			if err != nil {
				return err
			}
			if l.n-(i+1) < need-count {
				break
			}
		}
		return nil
	}
	parent := make([]int, nv)
	for i := range parent {
		parent[i] = i
	}
	return rec(0, parent, 0)
}

// trim removes degree-1 non-entity nodes (and their edges) from a tree until
// none remain, yielding the minimal query tree the spanning tree contains.
func (l *Lattice) trim(tree []int) EdgeSet {
	isEntity := make([]bool, len(l.nodes))
	for _, ei := range l.entities {
		isEntity[ei] = true
	}
	alive := make([]bool, l.n)
	deg := make([]int, len(l.nodes))
	for _, i := range tree {
		alive[i] = true
		deg[l.srcIdx[i]]++
		deg[l.dstIdx[i]]++
	}
	for {
		removed := false
		for _, i := range tree {
			if !alive[i] {
				continue
			}
			s, d := l.srcIdx[i], l.dstIdx[i]
			if (deg[s] == 1 && !isEntity[s]) || (deg[d] == 1 && !isEntity[d]) {
				alive[i] = false
				deg[s]--
				deg[d]--
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	var q EdgeSet
	for _, i := range tree {
		if alive[i] {
			q |= Bit(i)
		}
	}
	return q
}
