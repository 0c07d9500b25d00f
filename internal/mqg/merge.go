package mqg

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gqbe/internal/graph"
)

// MergeCtx combines the individual MQGs of multiple query tuples into one
// merged, re-weighted MQG (§III-D). Each tuple's query entities are replaced
// by virtual entities w1..wn (shared across tuples), vertices and edges are
// unioned, and an edge that appears in c of the virtual MQGs receives weight
// c·wmax(e), where wmax is its maximal weight among them. If the merged
// graph exceeds the target size r, it is trimmed by the same greedy used for
// single-tuple discovery (Alg. 1), with the virtual entities as the query
// tuple. The cancellation context is observed when the merged graph exceeds
// the budget and is trimmed (via discoverWeighted's per-part checks); the
// union itself is over already-budget-bounded MQGs and is cheap enough to
// run to completion.
func MergeCtx(ctx context.Context, mqgs []*MQG, r int) (*MQG, error) {
	if len(mqgs) == 0 {
		return nil, errors.New("mqg: no MQGs to merge")
	}
	n := len(mqgs[0].Tuple)
	for _, m := range mqgs {
		if len(m.Tuple) != n {
			return nil, fmt.Errorf("mqg: cannot merge MQGs of different tuple sizes %d and %d", n, len(m.Tuple))
		}
	}
	if r < 1 {
		return nil, fmt.Errorf("mqg: target size r = %d, need ≥ 1", r)
	}

	type agg struct {
		count    int
		wmax     float64
		lastSeen int // the last source MQG that counted the edge
	}
	index := make(map[graph.Edge]int)
	var edges []graph.Edge // first-seen order for determinism
	var aggs []agg
	for mi, m := range mqgs {
		for i, e := range m.Sub.Edges {
			ve := graph.Edge{Src: virtualize(m.Tuple, e.Src), Label: e.Label, Dst: virtualize(m.Tuple, e.Dst)}
			j, ok := index[ve]
			if !ok {
				j = len(edges)
				index[ve] = j
				edges = append(edges, ve)
				aggs = append(aggs, agg{lastSeen: -1})
			}
			a := &aggs[j]
			// Within one source MQG an edge must contribute at most once to
			// the presence count even if two of its edges collapse onto the
			// same virtual edge.
			if a.lastSeen != mi {
				a.count++
				a.lastSeen = mi
			}
			if w := m.Weights[i]; w > a.wmax {
				a.wmax = w
			}
		}
	}
	weights := make([]float64, len(edges))
	for i, a := range aggs {
		weights[i] = float64(a.count) * a.wmax
	}

	virtualTuple := make([]graph.NodeID, n)
	for slot := range virtualTuple {
		virtualTuple[slot] = VirtualNode(slot)
	}

	f := newFrame(edges, weights, virtualTuple)
	lt := f.locals(virtualTuple)
	idx := f.all()
	if len(edges) > r {
		var err error
		if idx, err = f.discoverWeighted(ctx, lt, r); err != nil {
			return nil, fmt.Errorf("mqg: trimming merged MQG: %w", err)
		}
	}
	if !f.connected(idx, lt) {
		return nil, errors.New("mqg: merged MQG is not weakly connected over the virtual entities")
	}
	kept := make([]float64, len(idx))
	for i, ei := range idx {
		kept[i] = weights[ei]
	}
	out := &MQG{
		Sub:     f.subGraph(idx),
		Weights: kept,
		Depths:  f.edgeDepths(idx, lt),
		Tuple:   virtualTuple,
	}
	return out, nil
}

// virtualize maps v to the virtual node of its slot in tuple, or returns
// it unchanged when it is not a query entity.
func virtualize(tuple []graph.NodeID, v graph.NodeID) graph.NodeID {
	for slot := len(tuple) - 1; slot >= 0; slot-- {
		if tuple[slot] == v {
			return VirtualNode(slot)
		}
	}
	return v
}

// SortEdgesByWeight returns the MQG's edge indices in descending weight
// order with a deterministic tie-break, used by displays and tests.
func (m *MQG) SortEdgesByWeight() []int {
	order := make([]int, len(m.Sub.Edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if m.Weights[i] != m.Weights[j] {
			return m.Weights[i] > m.Weights[j]
		}
		ei, ej := m.Sub.Edges[i], m.Sub.Edges[j]
		if ei.Src != ej.Src {
			return ei.Src < ej.Src
		}
		if ei.Label != ej.Label {
			return ei.Label < ej.Label
		}
		return ei.Dst < ej.Dst
	})
	return order
}
