package topk

import (
	"cmp"
	"slices"

	"gqbe/internal/graph"
)

// The search absorbs every row of every evaluated lattice node into per-tuple
// bests, so finding a row's candidate is the hottest non-join loop in the
// engine. Three things keep it cheap:
//
//   - Rows that extend the same child row are written next to each other and
//     bind the same entities, so absorb first compares a row's entity slots
//     with the previous row's candidate and hashes only when they differ.
//   - tupleMap hashes FNV-1a style over the tuple's raw int32 words, and its
//     buckets hold the colliding entries for an exact element-wise compare:
//     collision-safe without ever rendering a string key.
//   - The query tuples are registered up front as candidates flagged
//     excluded, so exclusion costs no second lookup.
//
// The Theorem-4 test needs the k′-th best structure score before every pop.
// scoreCounts keeps it without sorting: a tuple's best structure score only
// rises, so the search counts candidates per distinct score.

// tupleHash folds a tuple's raw node IDs FNV-1a style into a 64-bit hash.
//
//gqbe:hotpath
func tupleHash(t []graph.NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// tupleEq reports element-wise tuple equality.
func tupleEq(a, b []graph.NodeID) bool { return slices.Equal(a, b) }

// tupleMap indexes candidates by answer tuple. Alongside the hash buckets
// it keeps the candidates in insertion order: absorption order is the
// deterministic pop-then-row order of the search, so iterating the slice
// (rather than the buckets map, whose order varies run to run) keeps every
// consumer of each() bit-identical across runs.
type tupleMap struct {
	buckets map[uint64][]*candidate
	all     []*candidate // insertion order
}

func newTupleMap() *tupleMap {
	return &tupleMap{buckets: make(map[uint64][]*candidate)}
}

// lookup returns the candidate for t, or nil. t may be a transient scratch
// buffer; lookup never retains it.
//
//gqbe:hotpath
func (m *tupleMap) lookup(t []graph.NodeID) *candidate {
	for _, c := range m.buckets[tupleHash(t)] {
		if tupleEq(c.tuple, t) {
			return c
		}
	}
	return nil
}

// insert adds c under its tuple; the caller guarantees the tuple is absent
// (and that c.tuple is an owned copy, not a scratch buffer).
//
//gqbe:hotpath
func (m *tupleMap) insert(c *candidate) {
	h := tupleHash(c.tuple)
	m.buckets[h] = append(m.buckets[h], c)
	m.all = append(m.all, c)
}

// each calls fn for every candidate, in insertion (absorption) order.
func (m *tupleMap) each(fn func(*candidate)) {
	for _, c := range m.all {
		fn(c)
	}
}

// scoreCounts is a multiset of best structure scores: counts[i] candidates
// score scores[i], with the distinct scores in descending order and no zero
// count. A score enters once per candidate and then only rises, so the
// table holds as many entries as distinct scores are held, and the k′-th
// best is a walk over at most k′ of them.
type scoreCounts struct {
	scores []float64
	counts []int
	n      int // Σ counts
}

// find returns v's position in scores, or where it would be inserted.
func (t *scoreCounts) find(v float64) (int, bool) {
	return slices.BinarySearchFunc(t.scores, v, func(a, b float64) int { return cmp.Compare(b, a) })
}

// add counts one more candidate at v.
func (t *scoreCounts) add(v float64) {
	i, ok := t.find(v)
	if !ok {
		t.scores = slices.Insert(t.scores, i, v)
		t.counts = slices.Insert(t.counts, i, 0)
	}
	t.counts[i]++
	t.n++
}

// raise moves one candidate from score from, which it must hold, to to.
func (t *scoreCounts) raise(from, to float64) {
	i, _ := t.find(from)
	if t.counts[i]--; t.counts[i] == 0 {
		t.scores = slices.Delete(t.scores, i, i+1)
		t.counts = slices.Delete(t.counts, i, i+1)
	}
	t.n--
	t.add(to)
}

// kth returns the k-th highest score counted (k ≥ 1), or false if fewer than
// k candidates are counted.
func (t *scoreCounts) kth(k int) (float64, bool) {
	if t.n < k {
		return 0, false
	}
	i := 0
	for ; k > t.counts[i]; i++ {
		k -= t.counts[i]
	}
	return t.scores[i], true
}
