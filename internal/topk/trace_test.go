package topk

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gqbe/internal/obs"
)

// TestSearchTracedDeterministic pins the tracing contract: tracing on must
// not change the Result, and the node-evaluation table must have one row per
// evaluated node, with its null and skip flags matching the Result counters.
func TestSearchTracedDeterministic(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	opts := Options{K: 10}
	want, err := SearchCtx(context.Background(), store, lat, exclude, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	opts.Tracer = tr
	got, err := SearchCtx(context.Background(), store, lat, exclude, opts)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("traced Result differs from untraced:\n want: %+v\n got:  %+v", want, got)
	}
	evals := tr.NodeEvals()
	if len(evals) != got.NodesEvaluated {
		t.Errorf("%d NodeEvals recorded, NodesEvaluated = %d", len(evals), got.NodesEvaluated)
	}
	nulls, skips := 0, 0
	for _, e := range evals {
		if e.Null {
			nulls++
		}
		if e.Skipped {
			skips++
		}
	}
	if nulls != got.NullNodes || skips != got.RowBudgetSkips {
		t.Errorf("eval table counts nulls=%d skips=%d, Result has %d/%d",
			nulls, skips, got.NullNodes, got.RowBudgetSkips)
	}
}

// TestSearchTracedExecAttrs checks the evaluator counters land as attributes
// on the tracer's current span.
func TestSearchTracedExecAttrs(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	tr := obs.New()
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 10, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()
	attrs := map[string]int64{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Val
	}
	// Every evaluation the evaluator runs is one the search consumed.
	if attrs["exec_evaluations"] != int64(res.NodesEvaluated) {
		t.Errorf("exec_evaluations attr = %d, want NodesEvaluated %d",
			attrs["exec_evaluations"], res.NodesEvaluated)
	}
	if _, ok := attrs["exec_memo_hits"]; !ok {
		t.Error("exec_memo_hits attr missing")
	}
	if attrs["exec_incremental_joins"]+attrs["exec_scratch_evals"] != attrs["exec_evaluations"] {
		t.Errorf("incremental(%d) + scratch(%d) != evaluations(%d)",
			attrs["exec_incremental_joins"], attrs["exec_scratch_evals"], attrs["exec_evaluations"])
	}
}

// TestSearchDeadlinePartial is the regression test for the timeout path: a
// deadline expiring before (or during) the search loop yields a partial
// Result with the distinct StopDeadline disposition alongside the error, not
// a bare error.
func TestSearchDeadlinePartial(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := SearchCtx(ctx, store, lat, exclude, Options{K: 10})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial result on deadline")
	}
	if res.Stopped != StopDeadline {
		t.Errorf("Stopped = %q, want %q", res.Stopped, StopDeadline)
	}
	if res.NodesEvaluated != 0 || len(res.Answers) != 0 {
		t.Errorf("pre-expired deadline evaluated %d nodes, %d answers; want 0/0",
			res.NodesEvaluated, len(res.Answers))
	}
}

// TestSearchCountersPopulated sanity-checks the lattice counters on a real
// search.
func TestSearchCountersPopulated(t *testing.T) {
	_, store, lat, exclude := pipeline(t, "Jerry Yang", "Yahoo!")
	res, err := SearchCtx(context.Background(), store, lat, exclude, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesGenerated < res.NodesEvaluated {
		t.Errorf("NodesGenerated %d < NodesEvaluated %d", res.NodesGenerated, res.NodesEvaluated)
	}
	if res.NullNodes > 0 && res.FrontierRecomputes == 0 {
		t.Errorf("null nodes seen (%d) but FrontierRecomputes is 0", res.NullNodes)
	}
}
