package topk

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/storage"
)

// Concurrency in this engine is across queries, never inside one: each
// search runs Alg. 2 on one goroutine with its own evaluator, memo and
// scratch state, while the serving layer runs several searches at once over
// one shared store. These tests pin that model: searches running in parallel
// over one store and lattice each return the Result a lone search returns.
// Under -race they also catch any mutable state a change lets searches share.

// parallelSearches is how many copies of a search each case runs at once.
const parallelSearches = 4

type searchOutcome struct {
	res *Result
	err error
}

// searchParallel runs parallelSearches identical searches concurrently.
func searchParallel(ctx context.Context, store *storage.Store, lat *lattice.Lattice, exclude [][]graph.NodeID, opts Options) []searchOutcome {
	out := make([]searchOutcome, parallelSearches)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].res, out[i].err = SearchCtx(ctx, store, lat, exclude, opts)
		}(i)
	}
	wg.Wait()
	return out
}

// checkParallelOracle runs one search alone, then the same search on
// parallelSearches goroutines at once, and requires every Result to be
// deeply identical to the lone one: answers, scores, tie-break order,
// BestGraph, Stopped, and all counters. The lone Result must also report
// the row-budget stop reason only after a skip.
func checkParallelOracle(t *testing.T, name string, store *storage.Store, lat *lattice.Lattice, exclude [][]graph.NodeID, opts Options) {
	t.Helper()
	want, err := SearchCtx(context.Background(), store, lat, exclude, opts)
	if err != nil {
		t.Fatalf("%s: lone search: %v", name, err)
	}
	if want.Stopped == StopRowBudget && want.RowBudgetSkips == 0 {
		t.Errorf("%s: Stopped = %q without a row-budget skip", name, want.Stopped)
	}
	for i, got := range searchParallel(context.Background(), store, lat, exclude, opts) {
		if got.err != nil {
			t.Fatalf("%s: parallel search %d: %v", name, i, got.err)
		}
		if !reflect.DeepEqual(want, got.res) {
			t.Errorf("%s: parallel search %d differs from the lone search:\n lone: %+v\n got:  %+v", name, i, want, got.res)
		}
	}
}

func TestParallelSearchOracleFig1(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tuple []string
		opts  Options
	}{
		{"default-k", []string{"Jerry Yang", "Yahoo!"}, Options{K: 10}},
		{"exhaustive", []string{"Jerry Yang", "Yahoo!"}, Options{K: 1000, KPrime: 1000}},
		{"tiny-kprime", []string{"Jerry Yang", "Yahoo!"}, Options{K: 1, KPrime: 1}},
		{"max-evaluations", []string{"Jerry Yang", "Yahoo!"}, Options{K: 1000, KPrime: 1000, MaxEvaluations: 3}},
		{"row-budget", []string{"Jerry Yang", "Yahoo!"}, Options{K: 10, MaxRows: 8}},
		{"single-entity", []string{"Stanford"}, Options{K: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, store, lat, exclude := pipeline(t, tc.tuple...)
			checkParallelOracle(t, tc.name, store, lat, exclude, tc.opts)
		})
	}
}

// TestParallelSearchOracleKGSynth is the realistic-graph half of the oracle:
// the kgsynth Freebase-like graph (seed 42, the repo's benchmark graph) with
// the fixture's two workload queries, F1 and F18.
func TestParallelSearchOracleKGSynth(t *testing.T) {
	if testing.Short() {
		t.Skip("kgsynth graph build in -short mode")
	}
	kgFixture()
	for _, id := range kgQuery {
		t.Run(id, func(t *testing.T) {
			checkParallelOracle(t, id, kgSt, kgLats[id],
				[][]graph.NodeID{kgTups[id]}, Options{K: 25})
		})
	}
}

// TestParallelSearchRowBudgetSkips forces the row budget low enough that
// lattice nodes are skipped, so the parallel searches must also agree on the
// skip accounting and the row-budget stop reason.
func TestParallelSearchRowBudgetSkips(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	opts := Options{K: 1000, KPrime: 1000, MaxRows: 6}
	want, err := SearchCtx(context.Background(), store, lat, exclude, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.RowBudgetSkips == 0 || want.Stopped != StopRowBudget {
		t.Fatalf("fixture too small: %d row-budget skips, Stopped = %q at MaxRows=%d",
			want.RowBudgetSkips, want.Stopped, opts.MaxRows)
	}
	checkParallelOracle(t, "row-budget", store, lat, exclude, opts)
}

// TestParallelSearchCanceled: searches sharing one canceled context (one
// canceled request) each return a partial Result with StopCanceled
// alongside the context error (anytime answers).
func TestParallelSearchCanceled(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, got := range searchParallel(ctx, store, lat, exclude, Options{K: 10}) {
		if !errors.Is(got.err, context.Canceled) {
			t.Errorf("search %d: err = %v, want context.Canceled", i, got.err)
		}
		if got.res == nil {
			t.Errorf("search %d: canceled search returned no partial result", i)
			continue
		}
		if got.res.Stopped != StopCanceled {
			t.Errorf("search %d: Stopped = %q, want %q", i, got.res.Stopped, StopCanceled)
		}
	}
}

// TestParallelSearchManyOptionCombos sweeps K/KPrime interactions on Fig. 1
// where the Theorem-4 cut fires at different depths.
func TestParallelSearchManyOptionCombos(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	for _, k := range []int{1, 3, 10} {
		for _, kp := range []int{1, 5, 50} {
			if kp < k {
				continue
			}
			name := fmt.Sprintf("k%d-kp%d", k, kp)
			checkParallelOracle(t, name, store, lat, exclude, Options{K: k, KPrime: kp})
		}
	}
}
