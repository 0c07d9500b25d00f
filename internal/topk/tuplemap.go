package topk

import (
	"slices"

	"gqbe/internal/graph"
)

// The search absorbs every row of every evaluated lattice node, so tuple
// identity checks are the hottest non-join loop in the engine. Building a
// decimal string key per row ("12,407,33") costs an allocation and a format
// call each time; instead tuples hash FNV-1a style over their raw int32
// words, and the buckets hold the colliding entries for an exact
// element-wise compare — collision-safe without ever materializing a key.

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

// len returns the number of distinct tuples.
func (m *tupleMap) len() int { return len(m.all) }

// each calls fn for every candidate, in insertion (absorption) order.
func (m *tupleMap) each(fn func(*candidate)) {
	for _, c := range m.all {
		fn(c)
	}
}

// tupleSet is a set of tuples under the same hashing scheme; it holds the
// excluded (query) tuples.
type tupleSet struct {
	buckets map[uint64][][]graph.NodeID
}

func newTupleSet(tuples [][]graph.NodeID) *tupleSet {
	s := &tupleSet{buckets: make(map[uint64][][]graph.NodeID, len(tuples))}
	for _, t := range tuples {
		if !s.has(t) {
			cp := append([]graph.NodeID(nil), t...)
			h := tupleHash(cp)
			s.buckets[h] = append(s.buckets[h], cp)
		}
	}
	return s
}

// has reports membership; t may be a transient scratch buffer.
//
//gqbe:hotpath
func (s *tupleSet) has(t []graph.NodeID) bool {
	for _, x := range s.buckets[tupleHash(t)] {
		if tupleEq(x, t) {
			return true
		}
	}
	return false
}
