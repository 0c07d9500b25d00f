package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"gqbe/internal/fault"
	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/snapio"
)

// armFault enables cfg for the duration of the test. Fault state is global
// to the process, so these tests must not run in parallel with each other —
// none of them call t.Parallel.
func armFault(t *testing.T, cfg fault.Config) {
	t.Helper()
	t.Cleanup(fault.Disable)
	fault.Enable(cfg)
}

// TestFaultSnapshotReadErr: an injected I/O error surfaces as a wrapped
// ErrInjected from ReadSnapshot — never a panic, never a silent success.
func TestFaultSnapshotReadErr(t *testing.T) {
	_, snap := snapshotEngine(t)
	// After=3 lets the magic and version framing parse first, proving the
	// error path also works mid-file, not just at byte zero.
	armFault(t, fault.Config{fault.SnapioReadErr: {Every: 1, After: 3}})
	eng, err := ReadSnapshot(bytes.NewReader(snap))
	if eng != nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("ReadSnapshot = (%v, %v), want (nil, ErrInjected)", eng, err)
	}
}

// TestFaultSnapshotReadTruncate: an injected short read surfaces as the
// typed ErrTruncated sentinel.
func TestFaultSnapshotReadTruncate(t *testing.T) {
	_, snap := snapshotEngine(t)
	armFault(t, fault.Config{fault.SnapioReadTruncate: {Every: 1, After: 5}})
	eng, err := ReadSnapshot(bytes.NewReader(snap))
	if eng != nil || !errors.Is(err, snapio.ErrTruncated) {
		t.Fatalf("ReadSnapshot = (%v, %v), want (nil, ErrTruncated)", eng, err)
	}
}

// TestFaultSnapshotReadFlipSweep: a single bit flipped in any read chunk is
// always caught by a typed sentinel (checksum, structural corruption, or the
// framing checks when the flip lands in magic/version) — never a panic and
// never a quietly wrong engine. The sweep moves the flip across the first
// reads of the file to cover framing, headers, and column data.
func TestFaultSnapshotReadFlipSweep(t *testing.T) {
	_, snap := snapshotEngine(t)
	for after := uint64(0); after < 24; after++ {
		fault.Enable(fault.Config{fault.SnapioReadFlip: {Every: 1, After: after, Limit: 1}})
		eng, err := ReadSnapshot(bytes.NewReader(snap))
		fired := uint64(0)
		for _, st := range fault.Stats() {
			fired += st.Fired
		}
		fault.Disable()
		if fired == 0 {
			// The file had fewer reads than the offset; nothing was damaged,
			// so the load must have succeeded.
			if err != nil {
				t.Fatalf("after=%d: no flip fired but load failed: %v", after, err)
			}
			continue
		}
		if eng != nil || err == nil {
			t.Fatalf("after=%d: flipped snapshot loaded successfully", after)
		}
		if !errors.Is(err, snapio.ErrChecksum) && !errors.Is(err, snapio.ErrCorrupt) &&
			!errors.Is(err, snapio.ErrBadMagic) && !errors.Is(err, snapio.ErrVersion) &&
			!errors.Is(err, snapio.ErrTruncated) {
			t.Fatalf("after=%d: flip produced untyped error: %v", after, err)
		}
	}
}

// TestFaultSnapshotWriteErr: an injected write error fails WriteSnapshot
// with the wrapped sentinel.
func TestFaultSnapshotWriteErr(t *testing.T) {
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	eng := NewEngine(ds.Graph)
	armFault(t, fault.Config{fault.SnapioWriteErr: {Every: 1, After: 2}})
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WriteSnapshot = %v, want ErrInjected", err)
	}
}

// faultQueryFixture builds an engine and an F1 query tuple for the
// evaluation-layer fault tests.
func faultQueryFixture(t *testing.T) (*Engine, [][]graph.NodeID) {
	t.Helper()
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42})
	eng := NewEngine(ds.Graph)
	q := ds.MustQuery("F1")
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		t.Fatal(err)
	}
	return eng, [][]graph.NodeID{tuple}
}

// TestFaultExecEvalErr: an injected evaluation error aborts the query with a
// wrapped ErrInjected — an engine error, not a panic, not a partial answer
// passed off as complete.
func TestFaultExecEvalErr(t *testing.T) {
	eng, tuples := faultQueryFixture(t)
	armFault(t, fault.Config{fault.ExecEvalErr: {Every: 1}})
	res, err := eng.QueryMultiCtx(context.Background(), tuples, Options{K: 5})
	if res != nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("QueryMultiCtx = (%v, %v), want (nil, ErrInjected)", res, err)
	}
}

// queryPanic runs one query and returns the value it panicked with, nil if
// it returned normally.
func queryPanic(eng *Engine, tuples [][]graph.NodeID) (p any) {
	defer func() { p = recover() }()
	_, _ = eng.QueryMultiCtx(context.Background(), tuples, Options{K: 5}) // a normal return fails the caller's check
	return nil
}

// checkPanicPropagates pins the engine's panic contract for one injected
// fault point: the search runs on the caller's goroutine, so a panic there
// propagates out of QueryMultiCtx (the serving layer recovers it into a
// 500), and it leaves nothing behind — the same query on the same engine
// then returns the answers it returned before the fault.
func checkPanicPropagates(t *testing.T, point fault.Point) {
	t.Helper()
	eng, tuples := faultQueryFixture(t)
	want, err := eng.QueryMultiCtx(context.Background(), tuples, Options{K: 5})
	if err != nil || len(want.Answers) == 0 {
		t.Fatalf("baseline query: (%v, %v)", want, err)
	}
	armFault(t, fault.Config{point: {Every: 1, Limit: 1}})
	if p := queryPanic(eng, tuples); p == nil {
		t.Fatalf("%s: query returned normally, want the injected panic", point.Name())
	}
	got, err := eng.QueryMultiCtx(context.Background(), tuples, Options{K: 5})
	if err != nil || got == nil || !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("engine did not recover after fault exhausted: (%v, %v)", got, err)
	}
}

// TestFaultExecEvalPanicPropagates: an injected evaluation panic.
func TestFaultExecEvalPanicPropagates(t *testing.T) {
	checkPanicPropagates(t, fault.ExecEvalPanic)
}

// TestFaultStorageTablePanicRecovered: the storage probe layer's only fault
// shape is a panic; the engine recovers from it like from an evaluation
// panic.
func TestFaultStorageTablePanicRecovered(t *testing.T) {
	checkPanicPropagates(t, fault.StorageTablePanic)
}
