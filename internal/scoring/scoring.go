// Package scoring implements the answer scoring of §IV-B: the structure
// score s_score(Q) (total edge weight of the query graph), the content score
// c_score_Q(A) (extra credit for identical matching nodes, Eq. 6), and their
// sum (Eq. 5). Structure scores live on the lattice; this package adds the
// content side, which needs the concrete answer rows.
//
// c_score_Q(A) depends on a row only through which of Q's query nodes the
// row binds to themselves. Mask reduces a row to that set, one bit per slot,
// and CScore scores the set, so a caller absorbing many rows of one query
// graph rescores only when the set changes.
package scoring

import (
	"math/bits"

	"gqbe/internal/exec"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
)

// Scorer computes answer-graph scores for one query lattice.
type Scorer struct {
	lat *lattice.Lattice
	ev  *exec.Evaluator
	// nodes[slot] is the MQG node occupying the slot.
	nodes []graph.NodeID
	// incident[slot] is |E(u)| — the number of MQG edges incident on the
	// query node in that slot — the denominator of Eq. 6.
	incident []int
	// matchable has bit slot set for every slot that can match identically:
	// every slot except the virtual entities'.
	matchable uint64
}

// New builds a scorer for the lattice/evaluator pair. lattice.NewCtx refuses
// an MQG with more than 64 nodes, so a slot set fits one uint64.
func New(lat *lattice.Lattice, ev *exec.Evaluator) *Scorer {
	s := &Scorer{lat: lat, ev: ev, incident: make([]int, ev.NumSlots())}
	for i := range lat.M.Sub.Edges {
		ss, ds := ev.EdgeSlots(i)
		s.incident[ss]++
		if ds != ss {
			s.incident[ds]++
		}
	}
	for slot := 0; slot < ev.NumSlots(); slot++ {
		u := ev.NodeAt(slot)
		s.nodes = append(s.nodes, u)
		if !mqg.IsVirtual(u) {
			s.matchable |= 1 << uint(slot)
		}
	}
	return s
}

// SScore returns s_score(Q): the total weight of Q's edges.
func (s *Scorer) SScore(q lattice.EdgeSet) float64 { return s.lat.SScore(q) }

// Slots appends to dst, in ascending order, the slots of q's query nodes
// that can match identically, and returns the extended slice: Mask's slot
// list for every row of q. Virtual entities (negative IDs) can never match
// identically, so their slots are left out.
func (s *Scorer) Slots(dst []int, q lattice.EdgeSet) []int {
	var set uint64
	for r := uint64(q); r != 0; r &= r - 1 {
		ss, ds := s.ev.EdgeSlots(bits.TrailingZeros64(r))
		set |= 1<<uint(ss) | 1<<uint(ds)
	}
	for set &= s.matchable; set != 0; set &= set - 1 {
		dst = append(dst, bits.TrailingZeros64(set))
	}
	return dst
}

// Mask returns row's identical-match mask over slots (from Slots): bit slot
// is set iff the row binds that slot to its own query node.
//
//gqbe:hotpath
func (s *Scorer) Mask(slots []int, row exec.Row) uint64 {
	nodes := s.nodes
	var m uint64
	// Slots are below 64; masking the shift count says so to the compiler,
	// which then drops its shift-range check.
	for _, slot := range slots {
		m |= b2u(row[slot] == nodes[slot]) << (uint(slot) & 63)
	}
	return m
}

// b2u is 1 for true and 0 for false; the compiler emits it without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// CScore returns c_score_Q(A) for an answer graph of q whose identical
// matches are mask (from Mask): the sum of match(e, e') over q's edges
// (Eq. 6). A query node u matches identically when the row binds its slot
// to u itself; bits of virtual slots are ignored.
//
//gqbe:hotpath
func (s *Scorer) CScore(q lattice.EdgeSet, mask uint64) float64 {
	mask &= s.matchable
	if mask == 0 {
		return 0
	}
	total := 0.0
	// Iterate q's bits directly: materializing the edge-index slice
	// (lattice.EdgeIndices) would put an allocation on a per-row path.
	for r := uint64(q); r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		ss, ds := s.ev.EdgeSlots(i)
		uMatch := mask&(1<<uint(ss)) != 0
		vMatch := mask&(1<<uint(ds)) != 0
		w := s.lat.M.Weights[i]
		switch {
		case uMatch && vMatch:
			den := s.incident[ss]
			if s.incident[ds] < den {
				den = s.incident[ds]
			}
			total += w / float64(den)
		case uMatch:
			total += w / float64(s.incident[ss])
		case vMatch:
			total += w / float64(s.incident[ds])
		}
	}
	return total
}
