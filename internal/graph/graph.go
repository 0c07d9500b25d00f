// Package graph provides the directed, edge-labeled multigraph substrate that
// GQBE runs on, along with the small-graph utilities (subgraphs, undirected
// traversals, weakly connected components) the query pipeline is built from.
//
// A Graph is the large, immutable-after-load data graph: nodes are entities
// identified by dense int32 IDs, edge labels are interned to dense IDs, and
// adjacency is stored in both directions so undirected traversals are cheap.
// A SubGraph is a small edge list referencing data-graph node IDs; the
// neighborhood graph, maximal query graph, and every query graph in the
// lattice are SubGraphs.
//
// Adjacency has two physical forms behind one access API (Arcs views).
// Graphs built edge by edge keep per-node tandem label/node columns; graphs
// loaded from a snapshot keep one flat CSR per direction — an offset table
// over two big columns, which may be zero-copy views of an mmap'd snapshot
// (Borrowed). The first mutation of a frozen graph thaws it back to the
// per-node form; serving paths never mutate, so they never pay for that.
package graph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// NodeID identifies an entity node in a Graph. IDs are dense, starting at 0.
type NodeID int32

// LabelID identifies an interned edge label. IDs are dense, starting at 0.
type LabelID int32

// Edge is a directed labeled edge between two data-graph nodes. Edge identity
// is the full triple: two edges are the same edge iff Src, Label and Dst all
// match. Parallel edges with the same label are deduplicated on insert.
type Edge struct {
	Src   NodeID
	Label LabelID
	Dst   NodeID
}

// Arc is one adjacency entry: the label of an incident edge and the node at
// its far end. Out-arcs store the destination, in-arcs store the source.
type Arc struct {
	Label LabelID
	Node  NodeID
}

// Arcs is one node's adjacency in one direction, as two parallel columns:
// Labels[i] and Nodes[i] together are the i-th arc. The columns are owned by
// the graph (possibly by a read-only snapshot mapping) and must not be
// modified.
type Arcs struct {
	Labels []LabelID
	Nodes  []NodeID
}

// Len returns the number of arcs.
func (a Arcs) Len() int { return len(a.Nodes) }

// At returns the i-th arc as a struct.
func (a Arcs) At(i int) Arc { return Arc{Label: a.Labels[i], Node: a.Nodes[i]} }

// adjacency is one direction's arc storage, in exactly one of two forms:
//
//   - mutable: per-node tandem columns labels[v]/nodes[v] (off == nil);
//   - frozen CSR: off (numNodes+1 prefix sums) over flat lab/dst columns,
//     which a mapped snapshot load borrows instead of copying.
type adjacency struct {
	labels [][]LabelID
	nodes  [][]NodeID

	off []int32
	lab []LabelID
	dst []NodeID
}

// frozen reports whether the CSR form is active.
func (a *adjacency) frozen() bool { return a.off != nil }

// arcs returns v's adjacency view in either form.
func (a *adjacency) arcs(v NodeID) Arcs {
	if a.off != nil {
		lo, hi := a.off[v], a.off[v+1]
		return Arcs{Labels: a.lab[lo:hi:hi], Nodes: a.dst[lo:hi:hi]}
	}
	return Arcs{Labels: a.labels[v], Nodes: a.nodes[v]}
}

// degree returns v's arc count without materializing a view.
func (a *adjacency) degree(v NodeID) int {
	if a.off != nil {
		return int(a.off[v+1] - a.off[v])
	}
	return len(a.nodes[v])
}

// addNode appends an empty adjacency list (mutable form only).
func (a *adjacency) addNode() {
	a.labels = append(a.labels, nil)
	a.nodes = append(a.nodes, nil)
}

// add appends one arc to v (mutable form only).
func (a *adjacency) add(v NodeID, l LabelID, n NodeID) {
	a.labels[v] = append(a.labels[v], l)
	a.nodes[v] = append(a.nodes[v], n)
}

// thaw converts the CSR form back to per-node columns, copying any borrowed
// memory into owned heap slices so mutation never writes (or keeps pointers)
// into a read-only mapping.
func (a *adjacency) thaw() {
	if a.off == nil {
		return
	}
	n := len(a.off) - 1
	a.labels = make([][]LabelID, n)
	a.nodes = make([][]NodeID, n)
	for v := 0; v < n; v++ {
		lo, hi := a.off[v], a.off[v+1]
		if lo == hi {
			continue
		}
		a.labels[v] = append([]LabelID(nil), a.lab[lo:hi]...)
		a.nodes[v] = append([]NodeID(nil), a.dst[lo:hi]...)
	}
	a.off, a.lab, a.dst = nil, nil, nil
}

// Graph is a directed labeled multigraph with interned node names and edge
// labels. It is not safe for concurrent mutation; once loaded it is safe for
// concurrent reads.
type Graph struct {
	names []string
	// nameOff/nameBlob are the on-disk string-table form a borrowed snapshot
	// load keeps instead of names: count+1 cumulative offsets over one blob,
	// both views of the mapping. Name slices entries out lazily, so a mapped
	// open allocates nothing per node; materializeNames converts to names
	// ahead of any mutation. Exactly one of (names, nameOff) is in use.
	nameOff  []int32
	nameBlob string
	// byName is the name→ID index. Built incrementally by AddNode on the
	// builder path; snapshot loads leave it nil and nameIndex builds it on
	// first use — a mapped open must not pay O(numNodes) hashing up front.
	byName   map[string]NodeID
	nameOnce sync.Once

	labels      []string
	labelByName map[string]LabelID

	out adjacency
	in  adjacency

	// borrowed marks adjacency columns and name blobs as views of a
	// read-only snapshot mapping: the graph must not outlive the mapping,
	// and anything that escapes the engine (result names) must be cloned.
	borrowed bool
	// adjStart/adjEnd delimit the adjacency columns' byte range within the
	// snapshot the graph was read from — the madvise(WILLNEED) hint range.
	adjStart, adjEnd int64

	numEdges int
	// edges is the dedup set AddEdgeIDs consults. Snapshot-loaded graphs
	// leave it nil — the set costs more memory than the adjacency itself at
	// web scale, and a loaded graph is immutable in every serving path —
	// and HasEdge then answers from adjacency; the first mutation rebuilds
	// it (see ensureEdgeSet).
	edges map[Edge]struct{}
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		byName:      make(map[string]NodeID),
		labelByName: make(map[string]LabelID),
		edges:       make(map[Edge]struct{}),
	}
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int {
	if g.nameOff != nil {
		return len(g.nameOff) - 1
	}
	return len(g.names)
}

// NumEdges reports the number of distinct (src, label, dst) edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels reports the number of distinct edge labels.
func (g *Graph) NumLabels() int { return len(g.labels) }

// Borrowed reports whether the graph's columns alias a read-only snapshot
// mapping (see ReadSnapshot); such a graph must not outlive the mapping,
// and strings handed to callers that may outlive it must be cloned.
func (g *Graph) Borrowed() bool { return g.borrowed }

// AdjacencyRange returns the byte range [start, end) the adjacency columns
// occupied in the snapshot stream the graph was read from (zero for built
// graphs) — the prefetch-hint range for mapped snapshots.
func (g *Graph) AdjacencyRange() (start, end int64) { return g.adjStart, g.adjEnd }

// nameIndex returns the name→ID map, building it on first use for
// snapshot-loaded graphs. Safe for concurrent readers; the builder path
// populates the map incrementally instead (single-threaded by the mutation
// contract).
func (g *Graph) nameIndex() map[string]NodeID {
	g.nameOnce.Do(func() {
		if g.byName != nil {
			return
		}
		m := make(map[string]NodeID, g.NumNodes())
		for i, n := 0, g.NumNodes(); i < n; i++ {
			m[g.Name(NodeID(i))] = NodeID(i)
		}
		g.byName = m
	})
	return g.byName
}

// thaw switches frozen adjacency back to the mutable form ahead of a
// mutation. Name/label blobs may still alias a mapping afterwards; a thawed
// borrowed graph remains bound to its mapping's lifetime.
func (g *Graph) thaw() {
	g.out.thaw()
	g.in.thaw()
}

// AddNode interns name and returns its node ID, creating the node if needed.
func (g *Graph) AddNode(name string) NodeID {
	idx := g.nameIndex()
	if id, ok := idx[name]; ok {
		return id
	}
	if g.out.frozen() {
		g.thaw()
	}
	g.materializeNames()
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	idx[name] = id
	g.out.addNode()
	g.in.addNode()
	return id
}

// Node returns the ID for name and whether it exists.
func (g *Graph) Node(name string) (NodeID, bool) {
	id, ok := g.nameIndex()[name]
	return id, ok
}

// MustNode returns the ID for name, panicking if the node does not exist.
// It is intended for tests and examples where the node is known to exist.
func (g *Graph) MustNode(name string) NodeID {
	id, ok := g.Node(name)
	if !ok {
		panic(fmt.Sprintf("graph: unknown node %q", name))
	}
	return id
}

// Name returns the entity name for id. For borrowed graphs the string
// aliases the snapshot mapping — callers that retain it past the engine's
// lifetime must clone.
func (g *Graph) Name(id NodeID) string {
	if g.nameOff != nil {
		return g.nameBlob[g.nameOff[id]:g.nameOff[id+1]]
	}
	return g.names[id]
}

// materializeNames converts the lazy borrowed name table into a []string —
// required before AddNode can append. Entries still alias the mapping blob
// (same contract as thaw: a mutated borrowed graph remains bound to its
// mapping's lifetime). Must not run concurrently with readers, which the
// mutation contract already guarantees.
func (g *Graph) materializeNames() {
	if g.nameOff == nil {
		return
	}
	names := make([]string, len(g.nameOff)-1)
	for i := range names {
		names[i] = g.nameBlob[g.nameOff[i]:g.nameOff[i+1]]
	}
	g.names = names
	g.nameOff, g.nameBlob = nil, ""
}

// AddLabel interns an edge label and returns its ID.
func (g *Graph) AddLabel(label string) LabelID {
	if id, ok := g.labelByName[label]; ok {
		return id
	}
	id := LabelID(len(g.labels))
	g.labels = append(g.labels, label)
	g.labelByName[label] = id
	return id
}

// Label returns the ID for label and whether it exists.
func (g *Graph) Label(label string) (LabelID, bool) {
	id, ok := g.labelByName[label]
	return id, ok
}

// LabelName returns the string form of a label ID.
func (g *Graph) LabelName(id LabelID) string { return g.labels[id] }

// AddEdge adds the edge (src, label, dst) by name, creating nodes and the
// label as needed. It reports whether the edge was new.
func (g *Graph) AddEdge(src, label, dst string) bool {
	return g.AddEdgeIDs(g.AddNode(src), g.AddLabel(label), g.AddNode(dst))
}

// AddEdgeIDs adds the edge (src, label, dst) by ID. It reports whether the
// edge was new; duplicate edges are ignored.
func (g *Graph) AddEdgeIDs(src NodeID, label LabelID, dst NodeID) bool {
	g.ensureEdgeSet()
	if g.out.frozen() {
		g.thaw()
	}
	e := Edge{Src: src, Label: label, Dst: dst}
	if _, ok := g.edges[e]; ok {
		return false
	}
	g.edges[e] = struct{}{}
	g.out.add(src, label, dst)
	g.in.add(dst, label, src)
	g.numEdges++
	return true
}

// ensureEdgeSet rebuilds the dedup set from adjacency for graphs loaded
// without one (snapshots). Called only on the mutation path, so read-only
// serving never pays for it.
func (g *Graph) ensureEdgeSet() {
	if g.edges != nil {
		return
	}
	g.edges = make(map[Edge]struct{}, g.numEdges)
	g.Edges(func(e Edge) bool {
		g.edges[e] = struct{}{}
		return true
	})
}

// HasEdge reports whether the exact edge exists. Graphs loaded from a
// snapshot carry no edge set and answer by scanning the smaller of the two
// adjacency lists instead.
func (g *Graph) HasEdge(e Edge) bool {
	if g.edges != nil {
		_, ok := g.edges[e]
		return ok
	}
	n := g.NumNodes()
	if int(e.Src) >= n || int(e.Dst) >= n || e.Src < 0 || e.Dst < 0 {
		return false
	}
	arcs, want := g.out.arcs(e.Src), Arc{Label: e.Label, Node: e.Dst}
	if rev := g.in.arcs(e.Dst); rev.Len() < arcs.Len() {
		arcs, want = rev, Arc{Label: e.Label, Node: e.Src}
	}
	for i, node := range arcs.Nodes {
		if node == want.Node && arcs.Labels[i] == want.Label {
			return true
		}
	}
	return false
}

// OutArcs returns the outgoing adjacency of v as a column view. The columns
// are owned by the graph and must not be modified.
func (g *Graph) OutArcs(v NodeID) Arcs { return g.out.arcs(v) }

// InArcs returns the incoming adjacency of v as a column view. The columns
// are owned by the graph and must not be modified.
func (g *Graph) InArcs(v NodeID) Arcs { return g.in.arcs(v) }

// Degree returns the total (in+out) degree of v.
func (g *Graph) Degree(v NodeID) int { return g.out.degree(v) + g.in.degree(v) }

// Edges calls fn for every edge in the graph in an unspecified order,
// stopping early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for v, n := 0, g.NumNodes(); v < n; v++ {
		arcs := g.out.arcs(NodeID(v))
		for i, dst := range arcs.Nodes {
			if !fn(Edge{Src: NodeID(v), Label: arcs.Labels[i], Dst: dst}) {
				return
			}
		}
	}
}

// EdgesAsTriples calls fn(subject, predicate, object) by name for every
// edge, in the unspecified order of Edges.
func (g *Graph) EdgesAsTriples(fn func(s, p, o string)) {
	g.Edges(func(e Edge) bool {
		fn(g.Name(e.Src), g.LabelName(e.Label), g.Name(e.Dst))
		return true
	})
}

// SortAdjacency sorts all adjacency lists by (label, node). Loading is
// order-dependent on input; sorting makes traversal order deterministic,
// which the experiments rely on for reproducibility. Per-node lists are
// independent, so the work is spread across GOMAXPROCS workers; the result
// is identical to a sequential sort.
func (g *Graph) SortAdjacency() { g.SortAdjacencyParallel(0) }

// sortParallelMin is the node count below which SortAdjacencyParallel stays
// sequential: goroutine fan-out costs more than sorting a few thousand tiny
// lists.
const sortParallelMin = 1 << 13

// SortAdjacencyParallel is SortAdjacency across the given number of workers
// (0 or negative selects GOMAXPROCS). It must not run concurrently with
// mutation, like SortAdjacency itself.
func (g *Graph) SortAdjacencyParallel(workers int) {
	if g.borrowed {
		// Borrowed CSR columns are views of a read-only mapping; sorting
		// would fault. Snapshots preserve write order, so a sorted graph
		// round-trips sorted and this is never hit in practice — thaw keeps
		// it correct for the caller that insists.
		g.thaw()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumNodes()
	if workers == 1 || n < sortParallelMin {
		for v := 0; v < n; v++ {
			sortArcs(g.out.arcs(NodeID(v)))
			sortArcs(g.in.arcs(NodeID(v)))
		}
		return
	}
	var wg sync.WaitGroup
	for _, r := range NodeRanges(n, workers) {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				sortArcs(g.out.arcs(NodeID(v)))
				sortArcs(g.in.arcs(NodeID(v)))
			}
		}(r[0], r[1])
	}
	wg.Wait()
}

// NodeRanges splits [0, n) into at most `parts` contiguous half-open
// [lo, hi) ranges balanced to within one element — the partitioning the
// parallel adjacency sort fans out over.
func NodeRanges(n, parts int) [][2]int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// sortArcs sorts one adjacency view's tandem columns in place by
// (label, node).
func sortArcs(a Arcs) {
	sort.Sort(arcsByLabelNode(a))
}

// arcsByLabelNode adapts an Arcs view to sort.Interface, swapping the two
// parallel columns in tandem.
type arcsByLabelNode Arcs

func (a arcsByLabelNode) Len() int { return len(a.Nodes) }
func (a arcsByLabelNode) Less(i, j int) bool {
	if a.Labels[i] != a.Labels[j] {
		return a.Labels[i] < a.Labels[j]
	}
	return a.Nodes[i] < a.Nodes[j]
}
func (a arcsByLabelNode) Swap(i, j int) {
	a.Labels[i], a.Labels[j] = a.Labels[j], a.Labels[i]
	a.Nodes[i], a.Nodes[j] = a.Nodes[j], a.Nodes[i]
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d, labels: %d}", g.NumNodes(), g.NumEdges(), g.NumLabels())
}
