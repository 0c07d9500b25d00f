package topk

import (
	"context"
	"sort"
	"testing"

	"gqbe/internal/exec"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/scoring"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
	"gqbe/internal/testkg"
)

// pipeline runs the full discovery for a tuple on Fig. 1 and returns
// everything Search needs.
func pipeline(t *testing.T, names ...string) (*graph.Graph, *storage.Store, *lattice.Lattice, [][]graph.NodeID) {
	t.Helper()
	g := testkg.Fig1Padded()
	store := storage.Build(g)
	st := stats.New(store)
	tuple := testkg.Tuple(g, names...)
	nres, err := neighborhood.ExtractCtx(context.Background(), g, tuple, 2)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	m, err := mqg.DiscoverCtx(context.Background(), st, nres.Reduced, tuple, 10)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	lat, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("lattice.New: %v", err)
	}
	return g, store, lat, [][]graph.NodeID{tuple}
}

func names(g *graph.Graph, a Answer) string {
	s := ""
	for i, v := range a.Tuple {
		if i > 0 {
			s += "|"
		}
		s += g.Name(v)
	}
	return s
}

func TestSearchJerryYangYahoo(t *testing.T) {
	g, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	// K=10 comfortably covers all founder/company pairs; Gates/Microsoft
	// ranks below the California companies on content score.
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 10})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	got := make(map[string]bool)
	for _, a := range res.Answers {
		got[names(g, a)] = true
	}
	if got["Jerry Yang|Yahoo!"] {
		t.Error("query tuple leaked into the answers")
	}
	// The other founder/company pairs are the expected answers.
	for _, want := range []string{"Steve Wozniak|Apple Inc.", "Sergey Brin|Google", "Bill Gates|Microsoft"} {
		if !got[want] {
			t.Errorf("missing expected answer %s (got %v)", want, got)
		}
	}
}

func TestSearchScoresDescending(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i-1].Score < res.Answers[i].Score {
			t.Fatalf("answers not sorted by score at %d", i)
		}
	}
}

func TestSearchContentScoreRanksWozniakOverGates(t *testing.T) {
	// Wozniak/Apple shares more identical neighborhood nodes with the query
	// (San Jose, California) than Gates/Microsoft (Redmond/Washington), so
	// with equal structure the content score must rank Wozniak higher.
	g, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, a := range res.Answers {
		rank[names(g, a)] = i + 1
	}
	woz, wok := rank["Steve Wozniak|Apple Inc."]
	gates, gok := rank["Bill Gates|Microsoft"]
	if !wok || !gok {
		t.Fatalf("expected both answers present, rank=%v", rank)
	}
	if woz >= gates {
		t.Errorf("Wozniak rank %d should beat Gates rank %d", woz, gates)
	}
}

func TestSearchSingleEntity(t *testing.T) {
	g, store, lat, exclude := pipeline(t, "Stanford")
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if g.Name(a.Tuple[0]) == "Stanford" {
			t.Error("query entity leaked into single-entity answers")
		}
	}
}

// oracle exhaustively evaluates every valid lattice node and returns the
// best structure score per tuple — ground truth for stage 1.
func oracle(t *testing.T, store *storage.Store, lat *lattice.Lattice, exclude map[string]bool) map[string]float64 {
	t.Helper()
	ev := exec.New(store, lat)
	best := make(map[string]float64)
	for q := lattice.EdgeSet(1); q <= lat.Full(); q++ {
		if !lat.IsValid(q) {
			continue
		}
		rows, err := ev.Evaluate(q)
		if err != nil {
			t.Fatalf("oracle evaluate: %v", err)
		}
		s := lat.SScore(q)
		for i := 0; i < rows.Len(); i++ {
			key := TupleKey(ev.TupleOf(rows.Row(i)))
			if exclude[key] {
				continue
			}
			if s > best[key] {
				best[key] = s
			}
		}
	}
	return best
}

func TestSearchMatchesExhaustiveOracle(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	if lat.NumEdges() > 14 {
		t.Skipf("lattice too large for oracle: %d edges", lat.NumEdges())
	}
	excl := map[string]bool{TupleKey(exclude[0]): true}
	want := oracle(t, store, lat, excl)

	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 1000, KPrime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(want) {
		t.Errorf("found %d tuples, oracle found %d", len(res.Answers), len(want))
	}
	for _, a := range res.Answers {
		key := TupleKey(a.Tuple)
		if w, ok := want[key]; !ok {
			t.Errorf("tuple %s not in oracle", key)
		} else if a.SScore != w {
			t.Errorf("tuple %s SScore = %v, oracle %v", key, a.SScore, w)
		}
	}
}

func TestSearchTerminatesEarlyWithSmallK(t *testing.T) {
	// With k′=1 the search should stop long before exhausting the lattice.
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	resSmall, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 1, KPrime: 1})
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 1000, KPrime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.NodesEvaluated > resBig.NodesEvaluated {
		t.Errorf("small-k evaluated %d nodes, more than exhaustive %d",
			resSmall.NodesEvaluated, resBig.NodesEvaluated)
	}
	if resSmall.NodesEvaluated == 0 {
		t.Error("no nodes evaluated")
	}
}

func TestTheorem4TopAnswerAgreesAcrossK(t *testing.T) {
	// The top answer under early termination must match the exhaustive run
	// on the stage-1 (structure) ranking.
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	small, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 3, KPrime: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 1000, KPrime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Answers) == 0 || len(big.Answers) == 0 {
		t.Fatal("missing answers")
	}
	// Compare best stage-1 scores: the early-terminated search must have
	// found a tuple with the same best structure score as the global best.
	bestSmall, bestBig := 0.0, 0.0
	for _, a := range small.Answers {
		if a.SScore > bestSmall {
			bestSmall = a.SScore
		}
	}
	for _, a := range big.Answers {
		if a.SScore > bestBig {
			bestBig = a.SScore
		}
	}
	if bestSmall != bestBig {
		t.Errorf("early termination lost the best tuple: %v vs %v", bestSmall, bestBig)
	}
}

func TestNullNodePruning(t *testing.T) {
	// Build a data graph where the minimal tree has answers but no larger
	// query graph does; the search must prune ancestors and stop quickly.
	g := graph.New()
	g.AddEdge("q1", "rel", "q2")           // the query pair
	g.AddEdge("a1", "rel", "a2")           // one matching pair
	g.AddEdge("q1", "unique_prop", "only") // a feature nothing else has
	store := storage.Build(g)
	rel, _ := g.Label("rel")
	up, _ := g.Label("unique_prop")
	m := &mqg.MQG{
		Sub: graph.NewSubGraph([]graph.Edge{
			{Src: g.MustNode("q1"), Label: rel, Dst: g.MustNode("q2")},
			{Src: g.MustNode("q1"), Label: up, Dst: g.MustNode("only")},
		}),
		Weights: []float64{2, 1},
		Depths:  []int{1, 1},
		Tuple:   []graph.NodeID{g.MustNode("q1"), g.MustNode("q2")},
	}
	lat, err := lattice.NewCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	tuple := []graph.NodeID{g.MustNode("q1"), g.MustNode("q2")}
	res, err := SearchCtx(context.Background(), store, lat, [][]graph.NodeID{tuple}, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("got %d answers, want 1 (a1,a2)", len(res.Answers))
	}
	if g.Name(res.Answers[0].Tuple[0]) != "a1" {
		t.Errorf("answer = %s", g.Name(res.Answers[0].Tuple[0]))
	}
	if res.NullNodes == 0 {
		t.Error("expected at least one null node (the 2-edge graph only matches the query itself)")
	}
}

func TestMaxEvaluationsCap(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 1000, KPrime: 1000, MaxEvaluations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesEvaluated > 2 {
		t.Errorf("cap ignored: evaluated %d", res.NodesEvaluated)
	}
}

func TestOptionsFill(t *testing.T) {
	o := Options{}
	o.Fill()
	if o.K != 10 || o.KPrime != 100 || o.MaxRows != exec.DefaultMaxRows {
		t.Errorf("defaults wrong: %+v", o)
	}
	o = Options{K: 50}
	o.Fill()
	if o.KPrime != 200 {
		t.Errorf("KPrime default = %d, want 4·K = 200", o.KPrime)
	}
}

func TestStage2UsesFullScore(t *testing.T) {
	// Verify the reported Score equals bestS + best content credit by
	// recomputing for the top answer.
	g, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range res.Answers {
		if a.Score < a.SScore {
			t.Errorf("%s: full score %v below structure score %v", names(g, a), a.Score, a.SScore)
		}
	}
	_ = scoring.Scorer{}
	_ = sort.Float64Slice{}
}

// TestRowBudgetStopReason: a search whose row-budget skips leave Theorem 4's
// argument open must say so instead of claiming a complete search. Both
// cases skipped nodes whose ancestors could beat the answers returned.
func TestRowBudgetStopReason(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
		opts := Options{K: 1}
		exact, err := SearchCtx(context.Background(), store, lat, exclude, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.MaxRows = 8
		res, err := SearchCtx(context.Background(), store, lat, exclude, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stopped != StopRowBudget || res.RowBudgetSkips != 15 || res.NodesEvaluated != 28 {
			t.Errorf("Stopped = %q after %d skips in %d evaluations, want %q after 15 in 28",
				res.Stopped, res.RowBudgetSkips, res.NodesEvaluated, StopRowBudget)
		}
		if len(res.Answers) != 1 || len(exact.Answers) != 1 || res.Answers[0].Score >= exact.Answers[0].Score {
			t.Errorf("budgeted top answer %+v should score below the unbudgeted %+v", res.Answers, exact.Answers)
		}
	})
	t.Run("kgsynth-F18", func(t *testing.T) {
		if testing.Short() {
			t.Skip("kgsynth graph build in -short mode")
		}
		kgFixture()
		res, err := SearchCtx(context.Background(), kgSt, kgLats["F18"],
			[][]graph.NodeID{kgTups["F18"]}, Options{K: 10, MaxRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stopped != StopRowBudget || res.RowBudgetSkips != 1 || res.NodesEvaluated != 1 || len(res.Answers) != 0 {
			t.Errorf("Stopped = %q, %d skips, %d evaluations, %d answers; want %q, 1, 1, 0",
				res.Stopped, res.RowBudgetSkips, res.NodesEvaluated, len(res.Answers), StopRowBudget)
		}
	})
}
