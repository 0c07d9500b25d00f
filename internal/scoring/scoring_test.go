package scoring

import (
	"context"
	"math"
	"testing"

	"gqbe/internal/exec"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/storage"
	"gqbe/internal/testkg"
)

// fixture builds the Fig. 5(a)-style query graph with weights 4,3,2,1:
//
//	0: Jerry Yang -founded-> Yahoo!          (w=4)
//	1: Yahoo! -headquartered_in-> Sunnyvale  (w=3)
//	2: Sunnyvale -located_in-> California    (w=2)
//	3: Jerry Yang -places_lived-> San Jose   (w=1)
func fixture(t *testing.T) (*graph.Graph, *lattice.Lattice, *exec.Evaluator, *Scorer) {
	t.Helper()
	g := testkg.Fig1()
	lbl := func(s string) graph.LabelID {
		l, ok := g.Label(s)
		if !ok {
			t.Fatalf("no label %s", s)
		}
		return l
	}
	n := func(s string) graph.NodeID { return g.MustNode(s) }
	m := &mqg.MQG{
		Sub: graph.NewSubGraph([]graph.Edge{
			{Src: n("Jerry Yang"), Label: lbl("founded"), Dst: n("Yahoo!")},
			{Src: n("Yahoo!"), Label: lbl("headquartered_in"), Dst: n("Sunnyvale")},
			{Src: n("Sunnyvale"), Label: lbl("located_in"), Dst: n("California")},
			{Src: n("Jerry Yang"), Label: lbl("places_lived"), Dst: n("San Jose")},
		}),
		Weights: []float64{4, 3, 2, 1},
		Depths:  []int{1, 1, 1, 1},
		Tuple:   []graph.NodeID{n("Jerry Yang"), n("Yahoo!")},
	}
	lat, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ev := exec.New(storage.Build(g), lat)
	return g, lat, ev, New(lat, ev)
}

// rowFor finds the evaluated row of q whose first entity has the given name.
func rowFor(t *testing.T, g *graph.Graph, ev *exec.Evaluator, q lattice.EdgeSet, firstEntity string) exec.Row {
	t.Helper()
	rows, err := ev.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows.Len(); i++ {
		r := rows.Row(i)
		if g.Name(ev.TupleOf(r)[0]) == firstEntity {
			return r
		}
	}
	t.Fatalf("no row with first entity %s", firstEntity)
	return nil
}

// cscore scores row as an answer graph of q through its match mask.
func cscore(sc *Scorer, q lattice.EdgeSet, row exec.Row) float64 {
	return sc.CScore(q, sc.Mask(sc.Slots(nil, q), row))
}

func TestIncidentCounts(t *testing.T) {
	g, _, ev, sc := fixture(t)
	cases := map[string]int{
		"Jerry Yang": 2, "Yahoo!": 2, "Sunnyvale": 2, "California": 1, "San Jose": 1,
	}
	for name, want := range cases {
		slot, ok := ev.SlotOf(g.MustNode(name))
		if !ok {
			t.Fatalf("no slot for %s", name)
		}
		if got := sc.incident[slot]; got != want {
			t.Errorf("|E(%s)| = %d, want %d", name, got, want)
		}
	}
}

func TestCScoreIdentityRow(t *testing.T) {
	// The identity match binds every node to itself. Per Eq. 6 with both
	// endpoints matching, each edge contributes w/min(|E(u)|,|E(v)|):
	// founded: 4/min(2,2)=2; hq: 3/min(2,2)=1.5; located: 2/min(2,1)=2;
	// lived: 1/min(2,1)=1. Total 6.5.
	g, lat, ev, sc := fixture(t)
	row := rowFor(t, g, ev, lat.Full(), "Jerry Yang")
	if got := cscore(sc, lat.Full(), row); math.Abs(got-6.5) > 1e-12 {
		t.Errorf("identity c_score = %v, want 6.5", got)
	}
}

func TestCScoreWozniakRow(t *testing.T) {
	// ⟨Steve Wozniak, Apple Inc.⟩ matches with Cupertino for Sunnyvale; the
	// only identical nodes are California (edge 2, one side: 2/1=2) and
	// San Jose (edge 3, one side: 1/1=1). Total 3.
	g, lat, ev, sc := fixture(t)
	row := rowFor(t, g, ev, lat.Full(), "Steve Wozniak")
	if got := cscore(sc, lat.Full(), row); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("Wozniak c_score = %v, want 3", got)
	}
}

func TestCScoreRestrictedToQueryGraph(t *testing.T) {
	// On the subgraph {founded, lived}, the Wozniak row earns only the San
	// Jose credit, and |E(u)| still counts MQG edges (Jerry Yang has 2).
	g, _, ev, sc := fixture(t)
	q := lattice.Bit(0) | lattice.Bit(3)
	row := rowFor(t, g, ev, q, "Steve Wozniak")
	if got := cscore(sc, q, row); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("restricted c_score = %v, want 1", got)
	}
}

func TestFullScore(t *testing.T) {
	// score_Q(A) = s_score(Q) + c_score_Q(A) (Eq. 5): the Wozniak row under
	// the full MQG scores 10 + 3.
	g, lat, ev, sc := fixture(t)
	row := rowFor(t, g, ev, lat.Full(), "Steve Wozniak")
	if math.Abs(sc.SScore(lat.Full())-10) > 1e-12 {
		t.Errorf("SScore(full) = %v, want 10", sc.SScore(lat.Full()))
	}
	if got := sc.SScore(lat.Full()) + cscore(sc, lat.Full(), row); math.Abs(got-13) > 1e-12 {
		t.Errorf("Wozniak score = %v, want 13", got)
	}
}

func TestCScoreZeroMask(t *testing.T) {
	_, lat, _, sc := fixture(t)
	if got := sc.CScore(lat.Full(), 0); got != 0 {
		t.Errorf("c_score of the empty mask = %v, want 0", got)
	}
}

func TestCScoreNoIdenticalNodes(t *testing.T) {
	// Gates/Microsoft under {founded, hq}: Redmond≠Sunnyvale, no California
	// or San Jose edges in q → zero content credit.
	g, _, ev, sc := fixture(t)
	q := lattice.Bit(0) | lattice.Bit(1)
	row := rowFor(t, g, ev, q, "Bill Gates")
	if got := cscore(sc, q, row); got != 0 {
		t.Errorf("Gates c_score = %v, want 0", got)
	}
}

// virtualFixture is a two-edge MQG whose tuple slots are virtual entities
// w1, w2 (as in a merged multi-tuple MQG):
//
//	0: w1 -founded-> w2                    (w=2)
//	1: w2 -headquartered_in-> Sunnyvale    (w=1)
func virtualFixture(t *testing.T) (*graph.Graph, *exec.Evaluator, *Scorer) {
	t.Helper()
	g := testkg.Fig1()
	lbl, _ := g.Label("founded")
	hq, _ := g.Label("headquartered_in")
	w1, w2 := mqg.VirtualNode(0), mqg.VirtualNode(1)
	m := &mqg.MQG{
		Sub: graph.NewSubGraph([]graph.Edge{
			{Src: w1, Label: lbl, Dst: w2},
			{Src: w2, Label: hq, Dst: g.MustNode("Sunnyvale")},
		}),
		Weights: []float64{2, 1},
		Depths:  []int{1, 1},
		Tuple:   []graph.NodeID{w1, w2},
	}
	lat, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ev := exec.New(storage.Build(g), lat)
	return g, ev, New(lat, ev)
}

func TestVirtualEntitiesNeverMatchIdentically(t *testing.T) {
	g, ev, sc := virtualFixture(t)
	lat := sc.lat
	rows, err := ev.Evaluate(lat.Full())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows.Len(); i++ {
		row := rows.Row(i)
		tu := ev.TupleOf(row)
		c := cscore(sc, lat.Full(), row)
		// Only the Sunnyvale binding can earn credit; w1/w2 never do.
		if g.Name(tu[1]) == "Yahoo!" {
			if math.Abs(c-1.0) > 1e-12 { // hq edge: 1/|E(Sunnyvale)| = 1/1
				t.Errorf("Yahoo row c_score = %v, want 1", c)
			}
		} else if c != 0 {
			t.Errorf("row %s|%s c_score = %v, want 0", g.Name(tu[0]), g.Name(tu[1]), c)
		}
	}
}

// TestMaskIgnoresRowBindingVirtualNode binds a virtual slot to the virtual
// node itself. No data row can hold a negative ID, but the mask must still
// leave the slot out: a virtual entity never matches identically.
func TestMaskIgnoresRowBindingVirtualNode(t *testing.T) {
	_, ev, sc := virtualFixture(t)
	full := sc.lat.Full()
	slots := sc.Slots(nil, full)
	w1, _ := ev.SlotOf(mqg.VirtualNode(0))
	w2, _ := ev.SlotOf(mqg.VirtualNode(1))
	sv := -1
	for _, slot := range slots {
		if slot == w1 || slot == w2 {
			t.Errorf("Slots lists virtual slot %d", slot)
		}
		sv = slot
	}
	if len(slots) != 1 || mqg.IsVirtual(ev.NodeAt(sv)) {
		t.Fatalf("Slots = %v, want only Sunnyvale's slot", slots)
	}
	row := make(exec.Row, ev.NumSlots())
	row[w1], row[w2], row[sv] = mqg.VirtualNode(0), mqg.VirtualNode(1), ev.NodeAt(sv)
	if m := sc.Mask(slots, row); m != 1<<uint(sv) {
		t.Errorf("mask = %b, want only Sunnyvale's bit %b", m, uint64(1)<<uint(sv))
	}
	if got := sc.CScore(full, ^uint64(0)); math.Abs(got-1) > 1e-12 {
		t.Errorf("c_score with every bit set = %v, want 1 (Sunnyvale only)", got)
	}
}
