package topk

import (
	"math/rand"
	"sort"
	"testing"

	"gqbe/internal/graph"
)

// TestTupleMapEachInsertionOrder is the regression test for the determinism
// fix that replaced each()'s map-bucket iteration with the insertion-order
// slice: consumers (rank's candidate collection, the k'th-best probe) must
// see candidates in exactly absorption order on every run.
func TestTupleMapEachInsertionOrder(t *testing.T) {
	m := newTupleMap()
	// Tuples engineered across distinct hash buckets plus one colliding
	// bucket (same leading element keeps them distinct but adjacent).
	tuples := [][]graph.NodeID{
		{7, 1}, {3, 9}, {7, 2}, {1, 1}, {42, 0}, {3, 10},
	}
	for _, tu := range tuples {
		if m.lookup(tu) != nil {
			t.Fatalf("tuple %v unexpectedly present", tu)
		}
		m.insert(&candidate{tuple: tu})
	}
	if len(m.all) != len(tuples) {
		t.Fatalf("len = %d, want %d", len(m.all), len(tuples))
	}
	var got [][]graph.NodeID
	m.each(func(c *candidate) { got = append(got, c.tuple) })
	if len(got) != len(tuples) {
		t.Fatalf("each visited %d candidates, want %d", len(got), len(tuples))
	}
	for i := range tuples {
		if !tupleEq(got[i], tuples[i]) {
			t.Errorf("each order[%d] = %v, want %v (insertion order)", i, got[i], tuples[i])
		}
	}
	// lookup still resolves every tuple through the hash buckets.
	for _, tu := range tuples {
		c := m.lookup(tu)
		if c == nil || !tupleEq(c.tuple, tu) {
			t.Errorf("lookup(%v) = %v after inserts", tu, c)
		}
	}
}

// TestScoreCountsMatchesSort runs random sequences of new tuples and best
// structure score raises against the count table and, after every step,
// checks its k′-th best against a sort of every tuple's current best, for k′
// drawn from 1 to 120. Scores come from a small grid so that ties, which
// the lattice's discrete weights make common, are common here too.
func TestScoreCountsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		k := 1 + rng.Intn(120)
		var tab scoreCounts
		var bests []float64
		for step := 0; step < 400; step++ {
			if len(bests) == 0 || rng.Intn(3) == 0 {
				v := float64(rng.Intn(40)) / 4
				tab.add(v)
				bests = append(bests, v)
			} else {
				i := rng.Intn(len(bests))
				if bests[i] >= 10 {
					continue
				}
				v := bests[i] + float64(1+rng.Intn(8))/4
				tab.raise(bests[i], v)
				bests[i] = v
			}
			sorted := append([]float64(nil), bests...)
			sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
			got, have := tab.kth(k)
			if wantHave := len(sorted) >= k; have != wantHave {
				t.Fatalf("seq %d step %d: %d tuples, k′ %d: have = %v", seq, step, len(sorted), k, have)
			}
			if have && got != sorted[k-1] {
				t.Fatalf("seq %d step %d: k′-th best = %v, sort says %v", seq, step, got, sorted[k-1])
			}
			if tab.n != len(bests) {
				t.Fatalf("seq %d step %d: table counts %d tuples, want %d", seq, step, tab.n, len(bests))
			}
			for i, c := range tab.counts {
				if c <= 0 || (i > 0 && tab.scores[i] >= tab.scores[i-1]) {
					t.Fatalf("seq %d step %d: table not strictly descending with positive counts: %v %v", seq, step, tab.scores, tab.counts)
				}
			}
		}
	}
}
