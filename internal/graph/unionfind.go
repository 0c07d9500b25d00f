package graph

// UnionFind is a disjoint-set forest over dense ids [0, n) — a subgraph's
// nodes numbered locally — that also counts the edges added to each set.
// The greedy MQG search (Alg. 1) uses it to maintain weakly connected
// components incrementally as edges are added in descending weight order.
// The zero value is an empty forest; Reset sizes it.
type UnionFind struct {
	// parent[v] is v's parent, or −(size of v's set) when v is a root.
	parent []int32
	edges  []int32 // per root: the edges added to its set
}

// Reset makes every id in [0, n) a singleton with no edges, reusing the
// forest's storage.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
		u.edges = make([]int32, n)
	}
	u.parent, u.edges = u.parent[:n], u.edges[:n]
	for i := range u.parent {
		u.parent[i] = -1
		u.edges[i] = 0
	}
}

// Find returns the representative of v's set, halving the path walked.
func (u *UnionFind) Find(v int32) int32 {
	for {
		p := u.parent[v]
		if p < 0 {
			return v
		}
		gp := u.parent[p]
		if gp < 0 {
			return p
		}
		u.parent[v] = gp
		v = gp
	}
}

// Union merges the sets of a and b (the smaller under the larger) and
// returns the representative of the merged set.
func (u *UnionFind) Union(a, b int32) int32 {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	if u.parent[ra] > u.parent[rb] {
		ra, rb = rb, ra
	}
	u.parent[ra] += u.parent[rb]
	u.parent[rb] = ra
	u.edges[ra] += u.edges[rb]
	return ra
}

// AddEdge merges the sets of an edge's endpoints a and b and counts the
// edge in the merged set. It returns the set's representative.
func (u *UnionFind) AddEdge(a, b int32) int32 {
	r := u.Union(a, b)
	u.edges[r]++
	return r
}

// EdgeCount returns the number of edges added to v's set.
func (u *UnionFind) EdgeCount(v int32) int { return int(u.edges[u.Find(v)]) }

// AllSameSet reports whether every id in vs is in one set. Vacuously true
// for empty or single-id input.
func (u *UnionFind) AllSameSet(vs []int32) bool {
	if len(vs) == 0 {
		return true
	}
	r := u.Find(vs[0])
	for _, v := range vs[1:] {
		if u.Find(v) != r {
			return false
		}
	}
	return true
}
