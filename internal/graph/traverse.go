package graph

// This file holds traversals over the big data graph: undirected BFS from a
// seed set (the basis of the neighborhood graph of Def. 1) and undirected
// reachability checks.
//
// The BFS state lives in a DistMap — flat arrays indexed by dense NodeID
// with an epoch stamp — instead of a Go map: lookups become array loads,
// and clearing between passes is O(1), so one allocation serves every BFS
// a query runs. The table also numbers the reached nodes by visit
// position, the local ids the neighborhood reduction runs on.

// DistMap is a flat BFS distance table over dense node IDs. It also numbers
// the reached nodes by their visit position, so a caller can work on the
// reached set with dense local ids in [0, len(Reached())). An entry is live
// only when its stamp matches the current epoch, so Reset invalidates the
// whole table in O(1) without touching memory.
type DistMap struct {
	pos   []int32 // per node: its position in order
	stamp []uint32
	epoch uint32
	order []NodeID // reached nodes in visit (BFS) order
	dist  []int32  // per position: the distance of order[i]
}

// NewDistMap returns a table covering node IDs [0, numNodes).
func NewDistMap(numNodes int) *DistMap {
	return &DistMap{
		pos:   make([]int32, numNodes),
		stamp: make([]uint32, numNodes),
		epoch: 1,
	}
}

// Reset clears the table for a new BFS pass.
//
//gqbe:hotpath
func (d *DistMap) Reset() {
	d.epoch++
	d.order = d.order[:0]
	d.dist = d.dist[:0]
	if d.epoch == 0 {
		// The 32-bit epoch wrapped (4 billion resets): the stale stamps are
		// indistinguishable from live ones, so clear them once.
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.epoch = 1
	}
}

// Add records v at distance dv if it is unseen in this epoch, reporting
// whether it was added. Out-of-range IDs are ignored.
//
//gqbe:hotpath
func (d *DistMap) Add(v NodeID, dv int) bool {
	if v < 0 || int(v) >= len(d.pos) || d.stamp[v] == d.epoch {
		return false
	}
	d.stamp[v] = d.epoch
	d.pos[v] = int32(len(d.order))
	d.order = append(d.order, v)
	d.dist = append(d.dist, int32(dv))
	return true
}

// Index returns v's visit position — its local id — and whether v was
// reached this epoch.
//
//gqbe:hotpath
func (d *DistMap) Index(v NodeID) (int, bool) {
	if v < 0 || int(v) >= len(d.pos) || d.stamp[v] != d.epoch {
		return 0, false
	}
	return int(d.pos[v]), true
}

// Get returns v's distance and whether v was reached this epoch.
//
//gqbe:hotpath
func (d *DistMap) Get(v NodeID) (int, bool) {
	i, ok := d.Index(v)
	if !ok {
		return 0, false
	}
	return int(d.dist[i]), true
}

// Size returns the node-ID range the table covers (its NewDistMap argument).
func (d *DistMap) Size() int { return len(d.pos) }

// Reached returns the reached nodes in BFS visit order. The slice is owned
// by the map and valid until the next Reset.
func (d *DistMap) Reached() []NodeID { return d.order }

// Dists returns the distances of the reached nodes, parallel to Reached
// (nondecreasing, since that is BFS order). The slice is owned by the map
// and valid until the next Reset.
func (d *DistMap) Dists() []int32 { return d.dist }

// UndirectedDistancesInto runs a breadth-first search from the seed nodes,
// treating every edge as undirected, recording into d (which is Reset
// first) the hop distance of each reached node up to and including
// maxDepth. Seeds have distance 0. The reached set doubles as the BFS
// queue, so the pass allocates nothing beyond d's own growth.
func (g *Graph) UndirectedDistancesInto(d *DistMap, seeds []NodeID, maxDepth int) {
	d.Reset()
	for _, s := range seeds {
		d.Add(s, 0)
	}
	for head := 0; head < len(d.order); head++ {
		v := d.order[head]
		dv := int(d.dist[head])
		if dv == maxDepth {
			continue
		}
		for _, u := range g.out.arcs(v).Nodes {
			d.Add(u, dv+1)
		}
		for _, u := range g.in.arcs(v).Nodes {
			d.Add(u, dv+1)
		}
	}
}

// UndirectedDistances is the map-returning BFS for callers off the hot
// path. It deliberately stays map-based: its cost (and memory) is
// proportional to the reached set, not to NumNodes, which matters for
// callers that run many shallow BFS passes over a huge graph (e.g. the
// NESS baseline's per-pivot neighborhoods).
func (g *Graph) UndirectedDistances(seeds []NodeID, maxDepth int) map[NodeID]int {
	dist := make(map[NodeID]int, 16)
	queue := make([]NodeID, 0, len(seeds))
	for _, s := range seeds {
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		if dv == maxDepth {
			continue
		}
		visit := func(u NodeID) {
			if _, ok := dist[u]; !ok {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
		for _, u := range g.out.arcs(v).Nodes {
			visit(u)
		}
		for _, u := range g.in.arcs(v).Nodes {
			visit(u)
		}
	}
	return dist
}

// UndirectedDistancesFrom is UndirectedDistances from a single seed.
func (g *Graph) UndirectedDistancesFrom(seed NodeID, maxDepth int) map[NodeID]int {
	return g.UndirectedDistances([]NodeID{seed}, maxDepth)
}

// IncidentEdges calls fn for every edge incident on v (both directions).
func (g *Graph) IncidentEdges(v NodeID, fn func(Edge)) {
	out := g.out.arcs(v)
	for i, u := range out.Nodes {
		fn(Edge{Src: v, Label: out.Labels[i], Dst: u})
	}
	in := g.in.arcs(v)
	for i, u := range in.Nodes {
		fn(Edge{Src: u, Label: in.Labels[i], Dst: v})
	}
}
