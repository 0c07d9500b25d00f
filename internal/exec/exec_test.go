package exec

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/storage"
	"gqbe/internal/testkg"
)

// fig1Fixture hand-builds the Fig. 5(a)-style query graph over the Fig. 1
// data graph:
//
//	0: Jerry Yang -founded-> Yahoo!
//	1: Yahoo! -headquartered_in-> Sunnyvale
//	2: Sunnyvale -located_in-> California
//	3: Jerry Yang -places_lived-> San Jose
func fig1Fixture(t *testing.T, opts ...Option) (*graph.Graph, *lattice.Lattice, *Evaluator) {
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
	edges := []graph.Edge{
		{Src: n("Jerry Yang"), Label: lbl("founded"), Dst: n("Yahoo!")},
		{Src: n("Yahoo!"), Label: lbl("headquartered_in"), Dst: n("Sunnyvale")},
		{Src: n("Sunnyvale"), Label: lbl("located_in"), Dst: n("California")},
		{Src: n("Jerry Yang"), Label: lbl("places_lived"), Dst: n("San Jose")},
	}
	m := &mqg.MQG{
		Sub:     graph.NewSubGraph(edges),
		Weights: []float64{4, 3, 2, 1},
		Depths:  []int{1, 1, 1, 1},
		Tuple:   []graph.NodeID{n("Jerry Yang"), n("Yahoo!")},
	}
	l, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("lattice.New: %v", err)
	}
	return g, l, New(storage.Build(g), l, opts...)
}

// tupleNames projects every row to entity names, sorted for comparison.
func tupleNames(g *graph.Graph, ev *Evaluator, rows *Rows) []string {
	var out []string
	for i := 0; i < rows.Len(); i++ {
		tu := ev.TupleOf(rows.Row(i))
		s := ""
		for i, v := range tu {
			if i > 0 {
				s += "|"
			}
			s += g.Name(v)
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestEvaluateSingleEdge(t *testing.T) {
	g, _, ev := fig1Fixture(t)
	rows, err := ev.Evaluate(lattice.Bit(0)) // founded
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 7 {
		t.Fatalf("founded edge matched %d rows, want 7", rows.Len())
	}
	got := tupleNames(g, ev, rows)
	want := []string{
		"Bill Gates|Microsoft", "David Filo|Yahoo!", "Jerry Yang|Yahoo!",
		"Larry Page|Google", "Sergey Brin|Google", "Steve Jobs|Apple Inc.",
		"Steve Wozniak|Apple Inc.",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tuples = %v", got)
	}
}

func TestEvaluateFullQueryGraph(t *testing.T) {
	g, l, ev := fig1Fixture(t)
	rows, err := ev.Evaluate(l.Full())
	if err != nil {
		t.Fatal(err)
	}
	got := tupleNames(g, ev, rows)
	// Only the identity match and Wozniak/Apple satisfy all four relations
	// (founded + HQ in a California city + founder lived in San Jose).
	want := []string{"Jerry Yang|Yahoo!", "Steve Wozniak|Apple Inc."}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("full query graph tuples = %v, want %v", got, want)
	}
}

func TestEvaluateSharesChildResults(t *testing.T) {
	_, _, ev := fig1Fixture(t)
	if _, err := ev.Evaluate(lattice.Bit(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(lattice.Bit(0) | lattice.Bit(1)); err != nil {
		t.Fatal(err)
	}
	if ev.Evaluated() != 2 {
		t.Errorf("evaluated %d lattice nodes, want 2", ev.Evaluated())
	}
	// Memoized: re-evaluating must not bump the counter.
	if _, err := ev.Evaluate(lattice.Bit(0)); err != nil {
		t.Fatal(err)
	}
	if ev.Evaluated() != 2 {
		t.Errorf("memoized evaluation re-counted: %d", ev.Evaluated())
	}
}

func TestScratchEqualsIncremental(t *testing.T) {
	g, l, evInc := fig1Fixture(t)
	// Incremental: bottom-up through children.
	q0 := lattice.Bit(0)
	q01 := q0 | lattice.Bit(1)
	q012 := q01 | lattice.Bit(2)
	full := l.Full()
	for _, q := range []lattice.EdgeSet{q0, q01, q012, full} {
		if _, err := evInc.Evaluate(q); err != nil {
			t.Fatal(err)
		}
	}
	incRows, _ := evInc.Rows(full)

	_, _, evScr := fig1Fixture(t)
	scrRows, err := evScr.Evaluate(full)
	if err != nil {
		t.Fatal(err)
	}
	a := tupleNames(g, evInc, incRows)
	b := tupleNames(g, evScr, scrRows)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("incremental %v != scratch %v", a, b)
	}
}

func TestInjectivity(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "l", "b")
	g.AddEdge("b", "l", "a") // 2-cycle
	g.AddEdge("b", "l", "c")
	l0, _ := g.Label("l")
	// Path query u -l-> v -l-> w over three distinct variables.
	m := &mqg.MQG{
		Sub: graph.NewSubGraph([]graph.Edge{
			{Src: g.MustNode("a"), Label: l0, Dst: g.MustNode("b")},
			{Src: g.MustNode("b"), Label: l0, Dst: g.MustNode("c")},
		}),
		Weights: []float64{2, 1},
		Depths:  []int{1, 1},
		Tuple:   []graph.NodeID{g.MustNode("a"), g.MustNode("c")},
	}
	lat, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(storage.Build(g), lat)
	rows, err := ev.Evaluate(lat.Full())
	if err != nil {
		t.Fatal(err)
	}
	// Candidate chains: a->b->a (violates injectivity), a->b->c (ok),
	// b->a->b (violates). Only one survives.
	if rows.Len() != 1 {
		t.Fatalf("got %d rows, want 1 (injectivity must drop cyclic matches)", rows.Len())
	}
	tu := ev.TupleOf(rows.Row(0))
	if g.Name(tu[0]) != "a" || g.Name(tu[1]) != "c" {
		t.Errorf("surviving tuple = %s,%s", g.Name(tu[0]), g.Name(tu[1]))
	}
}

func TestSlotBookkeeping(t *testing.T) {
	g, l, ev := fig1Fixture(t)
	if ev.NumSlots() != 5 {
		t.Errorf("NumSlots = %d, want 5", ev.NumSlots())
	}
	jy := g.MustNode("Jerry Yang")
	s, ok := ev.SlotOf(jy)
	if !ok {
		t.Fatal("Jerry Yang has no slot")
	}
	if ev.NodeAt(s) != jy {
		t.Error("NodeAt(SlotOf) mismatch")
	}
	es := ev.EntitySlots()
	if len(es) != 2 || ev.NodeAt(es[0]) != jy {
		t.Errorf("entity slots wrong: %v", es)
	}
	ss, ds := ev.EdgeSlots(0)
	if ev.NodeAt(ss) != jy || ev.NodeAt(ds) != g.MustNode("Yahoo!") {
		t.Error("EdgeSlots(0) wrong")
	}
	_ = l
}

func TestReleaseDropsMaterialization(t *testing.T) {
	_, _, ev := fig1Fixture(t)
	q := lattice.Bit(0)
	if _, err := ev.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	if _, ok := ev.Rows(q); !ok {
		t.Fatal("rows not materialized")
	}
	ev.Release(q)
	if _, ok := ev.Rows(q); ok {
		t.Error("rows survive Release")
	}
}

func TestRowBudget(t *testing.T) {
	g := testkg.Fig1()
	lbl, _ := g.Label("founded")
	m := &mqg.MQG{
		Sub: graph.NewSubGraph([]graph.Edge{
			{Src: g.MustNode("Jerry Yang"), Label: lbl, Dst: g.MustNode("Yahoo!")},
		}),
		Weights: []float64{1},
		Depths:  []int{1},
		Tuple:   []graph.NodeID{g.MustNode("Jerry Yang"), g.MustNode("Yahoo!")},
	}
	lat, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(storage.Build(g), lat, WithMaxRows(3))
	_, err = ev.Evaluate(lat.Full())
	if !errors.Is(err, ErrTooManyRows) {
		t.Errorf("want ErrTooManyRows with budget 3 vs 7 founded edges, got %v", err)
	}
}

// TestFailedJoinRecyclesArena: a join that trips the row budget hands its
// partly filled arena back to the free list, and the next evaluation reuses
// it; a failing scratch evaluation also recycles its last intermediate.
// Fig. 1's founded table (7 rows) overflows a budget of 4.
func TestFailedJoinRecyclesArena(t *testing.T) {
	_, _, ev := fig1Fixture(t, WithMaxRows(4))
	if _, err := ev.Evaluate(lattice.Bit(1)); err != nil { // headquartered_in: 4 rows
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(lattice.Bit(0) | lattice.Bit(1)); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("joining founded: got %v, want ErrTooManyRows", err)
	}
	if len(ev.free) != 1 {
		t.Fatalf("%d arenas on the free list after the failed join, want 1", len(ev.free))
	}
	arena := ev.free[0][:1]
	rows, err := ev.Evaluate(lattice.Bit(1) | lattice.Bit(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.free) != 0 || &rows.data[0] != &arena[0] {
		t.Error("the next join cut a fresh arena instead of reusing the failed join's")
	}

	_, _, ev = fig1Fixture(t, WithMaxRows(4))
	if _, err := ev.Evaluate(lattice.Bit(0) | lattice.Bit(1)); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("scratch evaluation: got %v, want ErrTooManyRows", err)
	}
	if len(ev.free) != 2 {
		t.Errorf("%d arenas on the free list after the failed scratch evaluation, want its scan and its join output", len(ev.free))
	}
}

func TestEmptyQueryGraph(t *testing.T) {
	_, _, ev := fig1Fixture(t)
	if _, err := ev.Evaluate(0); err == nil {
		t.Error("empty edge set accepted")
	}
}

func TestUpwardClosureProperty1(t *testing.T) {
	// Property 1: every answer tuple of a parent is an answer tuple of each
	// of its valid children.
	g, l, ev := fig1Fixture(t)
	full := l.Full()
	parentRows, err := ev.Evaluate(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range l.Children(full) {
		childRows, err := ev.Evaluate(child)
		if err != nil {
			t.Fatal(err)
		}
		childTuples := make(map[string]bool)
		for _, s := range tupleNames(g, ev, childRows) {
			childTuples[s] = true
		}
		for _, s := range tupleNames(g, ev, parentRows) {
			if !childTuples[s] {
				t.Errorf("parent tuple %s missing from child %v", s, child)
			}
		}
	}
}

func TestVirtualEntityEvaluation(t *testing.T) {
	// Merged MQGs use negative virtual node IDs for the query entities; the
	// evaluator must treat them as ordinary variables.
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
	ev := New(storage.Build(g), lat)
	rows, err := ev.Evaluate(lat.Full())
	if err != nil {
		t.Fatal(err)
	}
	got := tupleNames(g, ev, rows)
	// Def. 3 matches edge labels only — Sunnyvale is a variable like any
	// other node (its identity earns content-score credit, not a filter),
	// so every founder of a company with a headquarters matches.
	want := []string{
		"Bill Gates|Microsoft", "David Filo|Yahoo!", "Jerry Yang|Yahoo!",
		"Larry Page|Google", "Sergey Brin|Google", "Steve Jobs|Apple Inc.",
		"Steve Wozniak|Apple Inc.",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("virtual-entity tuples = %v, want %v", got, want)
	}
}
