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

var update = flag.Bool("update", false, "rewrite testdata/search_golden.json from the current search")

const goldenPath = "testdata/search_golden.json"

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

// searchGolden runs one entry's pipeline at the engine's defaults (depth 2,
// MQG size 15, K 10) and records its result.
func searchGolden(t *testing.T, id string, names [][]string) goldenEntry {
	t.Helper()
	ctx := context.Background()
	var tuples [][]graph.NodeID
	var mqgs []*mqg.MQG
	var htEdges, reducedEdges []int
	for _, n := range names {
		tuple, err := kgDS.Tuple(n)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		nres, err := neighborhood.ExtractCtx(ctx, kgDS.Graph, tuple, 2)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		htEdges = append(htEdges, nres.Ht.NumEdges())
		reducedEdges = append(reducedEdges, nres.Reduced.NumEdges())
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
	lat, err := lattice.NewCtx(ctx, m)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	tr := obs.New()
	res, err := SearchCtx(ctx, kgSt, lat, tuples, Options{K: 10, Tracer: tr})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	attrs := map[string]int64{}
	for _, a := range tr.Finish().Attrs {
		attrs[a.Key] = a.Val
	}
	g := goldenEntry{
		ID: id, Tuples: names,
		HtEdges: htEdges, ReducedEdges: reducedEdges, MQGEdges: m.Sub.NumEdges(),
		NodesEvaluated:     res.NodesEvaluated,
		NullNodes:          res.NullNodes,
		NodesGenerated:     res.NodesGenerated,
		NodesPruned:        res.NodesPruned,
		FrontierRecomputes: res.FrontierRecomputes,
		TuplesSeen:         res.TuplesSeen,
		RowBudgetSkips:     res.RowBudgetSkips,
		Stopped:            res.Stopped,
		IncrementalJoins:   attrs["exec_incremental_joins"],
		ScratchEvals:       attrs["exec_scratch_evals"],
		PeakLiveRows:       res.PeakLiveRows,
	}
	for _, a := range res.Answers {
		g.Answers = append(g.Answers, fmt.Sprintf("%s %016x %016x %x",
			TupleKey(a.Tuple), math.Float64bits(a.Score), math.Float64bits(a.SScore), uint64(a.BestGraph)))
	}
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
		writeGolden(t, got)
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
func writeGolden(t *testing.T, entries []goldenEntry) {
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
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
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
