package topk

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current search")

const (
	goldenPath       = "testdata/search_golden.json"
	kPrimeGoldenPath = "testdata/kprime_golden.json"
)

// goldenEntry is one recorded search: the edge counts of the front half and
// the answers and every work counter of a default-option (K 10) search over
// the kgsynth Freebase graph, seed 42.
type goldenEntry struct {
	ID     string     `json:"id"`
	Tuples [][]string `json:"tuples"`
	// HtEdges and ReducedEdges are each tuple's neighborhood H_t and reduced
	// neighborhood sizes; MQGEdges is the size of the (merged) MQG searched.
	HtEdges      []int `json:"ht_edges"`
	ReducedEdges []int `json:"reduced_edges"`
	MQGEdges     int   `json:"mqg_edges"`
	// Answers are "tuple-key score-bits sscore-bits best-graph", ranked.
	Answers            []string   `json:"answers"`
	NodesEvaluated     int        `json:"nodes_evaluated"`
	NullNodes          int        `json:"null_nodes"`
	NodesGenerated     int        `json:"nodes_generated"`
	NodesPruned        int        `json:"nodes_pruned"`
	FrontierRecomputes int        `json:"frontier_recomputes"`
	TuplesSeen         int        `json:"tuples_seen"`
	RowBudgetSkips     int        `json:"row_budget_skips"`
	Stopped            StopReason `json:"stopped"`
	IncrementalJoins   int64      `json:"exec_incremental_joins"`
	ScratchEvals       int64      `json:"exec_scratch_evals"`
	// Rows is the sum of the evaluated nodes' row counts (NodeEval.Rows).
	Rows         int `json:"rows"`
	PeakLiveRows int `json:"peak_live_rows"`
}

// poolEntries lists the light and heavy operations of the benchmark's
// calibrated pool (bench/pools.json): every searched operation whose lattice
// search materializes under a million rows. Only -update reads it. The test
// generates the graph in memory rather than loading the benchmark's TSV, so
// node IDs, and a few entries' row counts, differ from the pool's.
func poolEntries(t *testing.T) []goldenEntry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "pools.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pools struct {
		Entries []struct {
			ID     string     `json:"id"`
			Tuples [][]string `json:"tuples"`
			Class  string     `json:"class"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &pools); err != nil {
		t.Fatal(err)
	}
	var out []goldenEntry
	for _, e := range pools.Entries {
		if e.Class == "light" || e.Class == "heavy" {
			out = append(out, goldenEntry{ID: e.ID, Tuples: e.Tuples})
		}
	}
	return out
}

// frontHalf runs one entry's pipeline up to the lattice at the engine's
// defaults (depth 2, MQG size 15) and records the front half's edge counts
// into a new golden entry.
func frontHalf(t *testing.T, id string, names [][]string) (goldenEntry, *lattice.Lattice, [][]graph.NodeID) {
	t.Helper()
	ctx := context.Background()
	var tuples [][]graph.NodeID
	var mqgs []*mqg.MQG
	g := goldenEntry{ID: id, Tuples: names}
	for _, n := range names {
		tuple, err := kgDS.Tuple(n)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		nres, err := neighborhood.ExtractCtx(ctx, kgDS.Graph, tuple, 2)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		g.HtEdges = append(g.HtEdges, nres.Ht.NumEdges())
		g.ReducedEdges = append(g.ReducedEdges, nres.Reduced.NumEdges())
		m, err := mqg.DiscoverCtx(ctx, kgEst, nres.Reduced, tuple, 15)
		nres.Release()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tuples = append(tuples, tuple)
		mqgs = append(mqgs, m)
	}
	m := mqgs[0]
	if len(mqgs) > 1 {
		var err error
		if m, err = mqg.MergeCtx(ctx, mqgs, 15); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	g.MQGEdges = m.Sub.NumEdges()
	lat, err := lattice.NewCtx(ctx, m)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return g, lat, tuples
}

// answerLines renders ranked answers as "tuple-key score-bits sscore-bits
// best-graph" lines.
func answerLines(answers []Answer) []string {
	var out []string
	for _, a := range answers {
		out = append(out, fmt.Sprintf("%s %016x %016x %x",
			TupleKey(a.Tuple), math.Float64bits(a.Score), math.Float64bits(a.SScore), uint64(a.BestGraph)))
	}
	return out
}

// searchGolden runs one entry's pipeline at the engine's defaults (depth 2,
// MQG size 15, K 10) and records its result.
func searchGolden(t *testing.T, id string, names [][]string) goldenEntry {
	t.Helper()
	ctx := context.Background()
	g, lat, tuples := frontHalf(t, id, names)
	tr := obs.New()
	res, err := SearchCtx(ctx, kgSt, lat, tuples, Options{K: 10, Tracer: tr})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	attrs := map[string]int64{}
	for _, a := range tr.Finish().Attrs {
		attrs[a.Key] = a.Val
	}
	g.NodesEvaluated = res.NodesEvaluated
	g.NullNodes = res.NullNodes
	g.NodesGenerated = res.NodesGenerated
	g.NodesPruned = res.NodesPruned
	g.FrontierRecomputes = res.FrontierRecomputes
	g.TuplesSeen = res.TuplesSeen
	g.RowBudgetSkips = res.RowBudgetSkips
	g.Stopped = res.Stopped
	g.IncrementalJoins = attrs["exec_incremental_joins"]
	g.ScratchEvals = attrs["exec_scratch_evals"]
	g.PeakLiveRows = res.PeakLiveRows
	g.Answers = answerLines(res.Answers)
	for _, e := range tr.NodeEvals() {
		g.Rows += e.Rows
	}
	return g
}

// TestSearchGolden pins the front half's edge counts and the search's
// answers, score bits and work counters on every light and heavy benchmark
// operation. A change that alters any of
// them — an optimization that should be exact, or a trajectory change that
// should be deliberate — shows up as a line diff of the golden file after
// `go test ./internal/topk -run TestSearchGolden -update`.
func TestSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 250 searches on the kgsynth graph")
	}
	kgFixture()
	var want []goldenEntry
	if *update {
		want = poolEntries(t)
	} else {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]goldenEntry, len(want))
	for i, w := range want {
		got[i] = searchGolden(t, w.ID, w.Tuples)
	}
	if *update {
		writeGolden(t, goldenPath, got)
		return
	}
	for i := range want {
		if got[i].PeakLiveRows > got[i].Rows {
			t.Errorf("%s: peak live rows %d exceed the %d rows materialized", got[i].ID, got[i].PeakLiveRows, got[i].Rows)
		}
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the golden file:\n want %s\n got  %s", want[i].ID, a, b)
		}
	}
}

// writeGolden writes one entry per line, so a change reads as a line diff.
func writeGolden[E any](t *testing.T, path string, entries []E) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(entries)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// kPrimeEntry is one golden search at a reduced stage-1 pool size: why it
// stopped, how many lattice nodes it evaluated and its ranked answers.
type kPrimeEntry struct {
	ID             string     `json:"id"`
	KPrime         int        `json:"kprime"`
	Stopped        StopReason `json:"stopped"`
	NodesEvaluated int        `json:"nodes_evaluated"`
	Answers        []string   `json:"answers"`
}

// TestKPrimeGolden pins the Theorem 4 path: with a small k′ the k′-th best
// structure score is reached early, so the test stops some searches
// (StopProven) that run to exhaustion at the default k′ of 100. Every
// light and heavy benchmark operation is searched at K 10 and k′ 10 and
// 32; totals over the file are ROADMAP item 23(a)'s k′ rows. Refresh
// with `go test ./internal/topk -run TestKPrimeGolden -update`.
func TestKPrimeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 500 searches on the kgsynth graph")
	}
	kgFixture()
	var ops []goldenEntry
	var want []kPrimeEntry
	if *update {
		ops = poolEntries(t)
	} else {
		data, err := os.ReadFile(kPrimeGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		data, err = os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &ops); err != nil {
			t.Fatal(err)
		}
	}
	var got []kPrimeEntry
	for _, op := range ops {
		_, lat, tuples := frontHalf(t, op.ID, op.Tuples)
		// Brownout's clamp (32) and the smallest pool K 10 allows.
		for _, kp := range []int{10, 32} {
			res, err := SearchCtx(context.Background(), kgSt, lat, tuples, Options{K: 10, KPrime: kp})
			if err != nil {
				t.Fatalf("%s k′ %d: %v", op.ID, kp, err)
			}
			got = append(got, kPrimeEntry{
				ID: op.ID, KPrime: kp, Stopped: res.Stopped,
				NodesEvaluated: res.NodesEvaluated, Answers: answerLines(res.Answers),
			})
		}
	}
	if *update {
		writeGolden(t, kPrimeGoldenPath, got)
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d k′ searches, golden file has %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("%s at k′ %d differs from the golden file:\n want %s\n got  %s", want[i].ID, want[i].KPrime, a, b)
		}
	}
}

// TestPeakLiveRowsBlowup pins the memory the search holds on the benchmark's
// blowup operation, F7 row 9: the rows of the absorbed nodes a waiting parent
// can still extend, well under the rows the search materializes.
func TestPeakLiveRowsBlowup(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes 5.6 M rows")
	}
	kgFixture()
	g := searchGolden(t, "F7/9", [][]string{kgDS.MustQuery("F7").Table[9]})
	if g.PeakLiveRows != 3_030_512 || g.Rows != 5_651_151 {
		t.Errorf("F7/9 holds %d live rows at its peak of %d materialized, want 3 030 512 of 5 651 151", g.PeakLiveRows, g.Rows)
	}
}
