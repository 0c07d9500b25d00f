package lattice

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gqbe/internal/graph"
	"gqbe/internal/mqg"
)

// fig9 reconstructs the paper's Fig. 9 example: query entities A and B and
// five edges F, G, H, L, P such that the minimal query trees are exactly
// {F} and {H,L}, node FLP is a valid query graph, and GLP is not.
//
//	F: A→B   G: A→C   H: A→X   L: X→B   P: B→D
//
// Edge indices: F=0, G=1, H=2, L=3, P=4.
func fig9() *mqg.MQG {
	const (
		A graph.NodeID = 0
		B graph.NodeID = 1
		C graph.NodeID = 2
		X graph.NodeID = 3
		D graph.NodeID = 4
	)
	edges := []graph.Edge{
		{Src: A, Label: 0, Dst: B}, // F
		{Src: A, Label: 1, Dst: C}, // G
		{Src: A, Label: 2, Dst: X}, // H
		{Src: X, Label: 3, Dst: B}, // L
		{Src: B, Label: 4, Dst: D}, // P
	}
	return &mqg.MQG{
		Sub:     graph.NewSubGraph(edges),
		Weights: []float64{5, 4, 3, 2, 1},
		Depths:  []int{1, 1, 1, 1, 1},
		Tuple:   []graph.NodeID{A, B},
	}
}

const (
	F EdgeSet = 1 << 0
	G EdgeSet = 1 << 1
	H EdgeSet = 1 << 2
	L EdgeSet = 1 << 3
	P EdgeSet = 1 << 4
)

func newFig9(t *testing.T) *Lattice {
	t.Helper()
	l, err := NewCtx(context.Background(), fig9())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func TestEdgeSetHelpers(t *testing.T) {
	q := F | H | P
	if !q.Has(0) || q.Has(1) || !q.Has(4) {
		t.Error("Has wrong")
	}
	if q.Count() != 3 {
		t.Errorf("Count = %d, want 3", q.Count())
	}
	if !q.Subsumes(F|P) || q.Subsumes(F|G) || !q.Subsumes(q) {
		t.Error("Subsumes wrong")
	}
	if Bit(3) != L {
		t.Error("Bit wrong")
	}
}

func TestMinimalTreesMatchPaperFig9(t *testing.T) {
	l := newFig9(t)
	got := l.MinimalTrees()
	want := []EdgeSet{F, H | L}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("minimal trees = %v, want %v (paper Fig. 9: F and HL)", got, want)
	}
}

func TestIsValidAgainstPaperExamples(t *testing.T) {
	l := newFig9(t)
	cases := []struct {
		name string
		q    EdgeSet
		want bool
	}{
		{"FGHLP (root)", F | G | H | L | P, true},
		{"FLP (paper's example valid node)", F | L | P, true},
		{"GLP (paper: not connected)", G | L | P, false},
		{"F", F, true},
		{"HL", H | L, true},
		{"H alone (no B)", H, false},
		{"P alone (no A)", P, false},
		{"GH (no B)", G | H, false},
		{"empty", 0, false},
		{"out of range bits", EdgeSet(1) << 40, false},
	}
	for _, c := range cases {
		if got := l.IsValid(c.q); got != c.want {
			t.Errorf("IsValid(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParentsMatchPaperFig10(t *testing.T) {
	// Paper Fig. 10(b): after evaluating HL, its parents GHL, HLP and FHL
	// are added to the lower frontier.
	l := newFig9(t)
	got := l.Parents(H | L)
	want := []EdgeSet{F | H | L, G | H | L, H | L | P}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Parents(HL) = %v, want %v", got, want)
	}
}

func TestParentsOfRoot(t *testing.T) {
	l := newFig9(t)
	if got := l.Parents(l.Full()); len(got) != 0 {
		t.Errorf("root has parents %v", got)
	}
}

func TestChildren(t *testing.T) {
	l := newFig9(t)
	if got := l.Children(l.Full()); len(got) != 5 {
		t.Errorf("root has %d children, want 5", len(got))
	}
	got := l.Children(F | L | P)
	// Ordered by removed-edge index: L is removed before P. Dropping F
	// orphans entity A, so only two children exist.
	want := []EdgeSet{F | P, F | L}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Children(FLP) = %v, want %v", got, want)
	}
	if got := l.Children(F); len(got) != 0 {
		t.Errorf("minimal tree F has children %v", got)
	}
}

func TestSScore(t *testing.T) {
	l := newFig9(t)
	if got := l.SScore(F | L); math.Abs(got-7) > 1e-12 {
		t.Errorf("SScore(FL) = %v, want 7", got)
	}
	if got := l.SScore(l.Full()); math.Abs(got-15) > 1e-12 {
		t.Errorf("SScore(full) = %v, want 15", got)
	}
	if l.SScore(0) != 0 {
		t.Error("SScore(empty) != 0")
	}
}

func TestSScoreMonotone(t *testing.T) {
	// Property 2: Q1 ≺ Q2 ⇒ s_score(Q1) < s_score(Q2).
	l := newFig9(t)
	if l.SScore(H|L) >= l.SScore(F|H|L) {
		t.Error("subgraph should score strictly lower than supergraph")
	}
}

func TestComponentContaining(t *testing.T) {
	l := newFig9(t)
	if got := l.ComponentContaining(G | L | P); got != 0 {
		t.Errorf("GLP has no component with both entities; got %v", got)
	}
	if got := l.ComponentContaining(F | G | L); got != F|G|L {
		t.Errorf("ComponentContaining(FGL) = %v, want FGL", got)
	}
	// H|L plus the detached-from-A edge P: component from A covers all of
	// HLP because P hangs off B.
	if got := l.ComponentContaining(H | L | P); got != H|L|P {
		t.Errorf("ComponentContaining(HLP) = %v", got)
	}
	if got := l.ComponentContaining(0); got != 0 {
		t.Errorf("ComponentContaining(0) = %v", got)
	}
}

func TestSubGraphAndEdgeIndices(t *testing.T) {
	l := newFig9(t)
	sg := l.SubGraph(F | P)
	if sg.NumEdges() != 2 {
		t.Fatalf("SubGraph has %d edges", sg.NumEdges())
	}
	if got := l.EdgeIndices(F | P); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Errorf("EdgeIndices = %v", got)
	}
}

func TestSingleEntityMinimalTrees(t *testing.T) {
	m := &mqg.MQG{
		Sub: graph.NewSubGraph([]graph.Edge{
			{Src: 0, Label: 0, Dst: 1},
			{Src: 2, Label: 1, Dst: 0},
			{Src: 1, Label: 2, Dst: 2},
		}),
		Weights: []float64{3, 2, 1},
		Depths:  []int{1, 1, 1},
		Tuple:   []graph.NodeID{0},
	}
	l, err := NewCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	got := l.MinimalTrees()
	want := []EdgeSet{Bit(0), Bit(1)} // the two edges incident on entity 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-entity minimal trees = %v, want %v", got, want)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := NewCtx(context.Background(), &mqg.MQG{Sub: &graph.SubGraph{}}); err == nil {
		t.Error("empty MQG accepted")
	}
	m := fig9()
	m.Tuple = []graph.NodeID{99}
	if _, err := NewCtx(context.Background(), m); err == nil {
		t.Error("entity outside MQG accepted")
	}
	var edges []graph.Edge
	var ws []float64
	var ds []int
	for i := 0; i < 70; i++ {
		edges = append(edges, graph.Edge{Src: graph.NodeID(i), Label: 0, Dst: graph.NodeID(i + 1)})
		ws = append(ws, 1)
		ds = append(ds, 1)
	}
	big := &mqg.MQG{Sub: graph.NewSubGraph(edges), Weights: ws, Depths: ds, Tuple: []graph.NodeID{0, 70}}
	if _, err := NewCtx(context.Background(), big); err == nil {
		t.Error("oversized MQG accepted")
	}
}

// path returns an n-edge path MQG whose two ends are the query entities.
func path(n int) *mqg.MQG {
	m := &mqg.MQG{}
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{Src: graph.NodeID(i), Label: 0, Dst: graph.NodeID(i + 1)})
		m.Weights = append(m.Weights, 1)
		m.Depths = append(m.Depths, 1)
	}
	m.Sub = graph.NewSubGraph(edges)
	m.Tuple = []graph.NodeID{0, graph.NodeID(n)}
	return m
}

// TestMaxEdgesFitsNodeMask pins the size limits a 64-bit per-node mask needs:
// a connected MQG at MaxEdges has maxNodes = 64 nodes and is accepted, one
// edge more is refused, and so is a disconnected MQG within the edge cap
// whose nodes outnumber maxNodes.
func TestMaxEdgesFitsNodeMask(t *testing.T) {
	l, err := NewCtx(context.Background(), path(63))
	if err != nil {
		t.Fatalf("63-edge MQG refused: %v", err)
	}
	if l.NumEdges() != 63 || len(l.nodes) != 64 {
		t.Errorf("63-edge path has %d edges and %d nodes, want 63 and 64", l.NumEdges(), len(l.nodes))
	}
	if _, err := NewCtx(context.Background(), path(64)); err == nil {
		t.Error("64-edge MQG accepted")
	}
	m := path(1)
	edges := m.Sub.Edges
	for i := 0; i < 40; i++ {
		edges = append(edges, graph.Edge{Src: graph.NodeID(100 + 2*i), Label: 0, Dst: graph.NodeID(101 + 2*i)})
		m.Weights = append(m.Weights, 1)
		m.Depths = append(m.Depths, 1)
	}
	m.Sub = graph.NewSubGraph(edges)
	if _, err := NewCtx(context.Background(), m); err == nil {
		t.Error("41-edge MQG with 82 nodes accepted")
	}
}

func TestDisconnectedEntitiesNoTrees(t *testing.T) {
	m := &mqg.MQG{
		Sub: graph.NewSubGraph([]graph.Edge{
			{Src: 0, Label: 0, Dst: 1},
			{Src: 5, Label: 0, Dst: 6},
		}),
		Weights: []float64{1, 1},
		Depths:  []int{1, 1},
		Tuple:   []graph.NodeID{0, 5},
	}
	if _, err := NewCtx(context.Background(), m); err == nil {
		t.Error("MQG that cannot connect the entities should fail New")
	}
}

// randomMQG builds a random connected MQG over which lattice invariants are
// checked.
func randomMQG(r *rand.Rand) *mqg.MQG {
	nv := 3 + r.Intn(4)
	var edges []graph.Edge
	// spanning chain guarantees connectivity
	for i := 1; i < nv; i++ {
		edges = append(edges, graph.Edge{Src: graph.NodeID(r.Intn(i)), Label: graph.LabelID(r.Intn(3)), Dst: graph.NodeID(i)})
	}
	extra := r.Intn(4)
	for i := 0; i < extra; i++ {
		s, d := r.Intn(nv), r.Intn(nv)
		if s == d {
			continue
		}
		edges = append(edges, graph.Edge{Src: graph.NodeID(s), Label: graph.LabelID(r.Intn(3)), Dst: graph.NodeID(d)})
	}
	sub := graph.NewSubGraph(edges)
	ws := make([]float64, len(sub.Edges))
	ds := make([]int, len(sub.Edges))
	for i := range ws {
		ws[i] = 0.1 + r.Float64()
		ds[i] = 1
	}
	t2 := graph.NodeID(1 + r.Intn(nv-1))
	return &mqg.MQG{Sub: sub, Weights: ws, Depths: ds, Tuple: []graph.NodeID{0, t2}}
}

// Property (Def. 7): every minimal query tree is a valid query graph and
// removing any single edge invalidates it.
func TestQuickMinimalTreesAreMinimal(t *testing.T) {
	f := func(seed int64) bool {
		l, err := NewCtx(context.Background(), randomMQG(rand.New(rand.NewSource(seed))))
		if err != nil {
			return true // disconnected entities: nothing to check
		}
		for _, q := range l.MinimalTrees() {
			if !l.IsValid(q) {
				return false
			}
			for _, i := range l.EdgeIndices(q) {
				if l.IsValid(q &^ Bit(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: every valid query graph subsumes at least one minimal query tree
// (the lattice's bottom elements truly cover the space).
func TestQuickEveryValidSubsumesAMinimalTree(t *testing.T) {
	f := func(seed int64) bool {
		l, err := NewCtx(context.Background(), randomMQG(rand.New(rand.NewSource(seed))))
		if err != nil {
			return true
		}
		for q := EdgeSet(1); q <= l.Full(); q++ {
			if !l.IsValid(q) {
				continue
			}
			found := false
			for _, mt := range l.MinimalTrees() {
				if q.Subsumes(mt) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Parents and Children are mutually consistent on valid nodes.
func TestQuickParentChildDuality(t *testing.T) {
	f := func(seed int64) bool {
		l, err := NewCtx(context.Background(), randomMQG(rand.New(rand.NewSource(seed))))
		if err != nil {
			return true
		}
		for q := EdgeSet(1); q <= l.Full(); q++ {
			if !l.IsValid(q) {
				continue
			}
			for _, p := range l.Parents(q) {
				if !l.IsValid(p) {
					return false
				}
				childOK := false
				for _, c := range l.Children(p) {
					if c == q {
						childOK = true
						break
					}
				}
				if !childOK {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property 2 of the paper, checked exhaustively on random lattices:
// subsumption implies strictly smaller structure score.
func TestQuickSScoreStrictlyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		l, err := NewCtx(context.Background(), randomMQG(rand.New(rand.NewSource(seed))))
		if err != nil {
			return true
		}
		for q := EdgeSet(1); q <= l.Full(); q++ {
			for _, p := range l.Parents(q) {
				if l.SScore(q) >= l.SScore(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
