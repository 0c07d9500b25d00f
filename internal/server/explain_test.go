package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gqbe"
)

func postExplain(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query:explain", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeExplain(t *testing.T, w *httptest.ResponseRecorder) explainResponse {
	t.Helper()
	var out explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding explain response %q: %v", w.Body.String(), err)
	}
	return out
}

// TestExplainBreakdown pins the explain schema against the engine's own
// stats: the per-node evaluation table has exactly stats.nodes_evaluated
// rows, the lattice summary agrees with stats, the MQG rendering matches
// mqg_edges, and the span tree covers the pipeline with stage durations
// accounting for the request wall time.
func TestExplainBreakdown(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postExplain(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if w.Header().Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID header")
	}
	res := decodeExplain(t, w)
	if res.RequestID == "" {
		t.Error("no request_id in body")
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	if res.Partial || res.Error != nil {
		t.Fatalf("unexpected partial/error: %+v", res.Error)
	}

	if got := len(res.NodeEvals); got != res.Stats.NodesEvaluated {
		t.Errorf("node_evals rows = %d, stats.nodes_evaluated = %d", got, res.Stats.NodesEvaluated)
	}
	if res.Lattice.Evaluated != res.Stats.NodesEvaluated {
		t.Errorf("lattice.evaluated = %d, stats says %d", res.Lattice.Evaluated, res.Stats.NodesEvaluated)
	}
	if res.Lattice.Generated < res.Lattice.Evaluated {
		t.Errorf("generated %d < evaluated %d", res.Lattice.Generated, res.Lattice.Evaluated)
	}
	if res.Lattice.StopReason == "" {
		t.Error("no lattice.stop_reason")
	}
	nulls := 0
	for _, ne := range res.NodeEvals {
		if len(ne.Edges) == 0 {
			t.Error("node eval with no MQG edges")
		}
		for _, e := range ne.Edges {
			if e < 0 || e >= len(res.MQG.Edges) {
				t.Errorf("node eval edge index %d out of MQG range %d", e, len(res.MQG.Edges))
			}
		}
		if ne.Null {
			nulls++
		}
	}
	if nulls != res.Lattice.Null {
		t.Errorf("null rows in table = %d, lattice.null = %d", nulls, res.Lattice.Null)
	}
	// The live rows peak at some node's rows at least, and never above all
	// rows the search materialized.
	maxRows, sumRows := 0, 0
	for _, ne := range res.NodeEvals {
		maxRows, sumRows = max(maxRows, ne.Rows), sumRows+ne.Rows
	}
	if res.Lattice.PeakLiveRows < maxRows || res.Lattice.PeakLiveRows > sumRows {
		t.Errorf("lattice.peak_live_rows = %d, want within [%d, %d]", res.Lattice.PeakLiveRows, maxRows, sumRows)
	}

	if res.MQG == nil || len(res.MQG.Edges) != res.Stats.MQGEdges {
		t.Fatalf("mqg rendering = %+v, want %d edges", res.MQG, res.Stats.MQGEdges)
	}
	if len(res.MQG.Nodes) == 0 {
		t.Error("mqg rendering has no nodes")
	}

	if res.Trace.Name != "query" {
		t.Fatalf("trace root = %q, want query", res.Trace.Name)
	}
	stages := map[string]bool{}
	var walk func(sp spanJSON)
	walk = func(sp spanJSON) {
		stages[sp.Name] = true
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(res.Trace)
	for _, want := range []string{"admission.wait", "engine", "discovery", "lattice.build", "search"} {
		if !stages[want] {
			t.Errorf("span %q missing from trace (have %v)", want, stages)
		}
	}
	// Stage coverage: the root's direct children account for the
	// request's wall time within 5% (plus a small absolute slack —
	// the Fig. 1 engine answers in microseconds, where fixed
	// bookkeeping costs would dominate a purely relative bound).
	var children int64
	for _, c := range res.Trace.Children {
		children += c.DurationUS
	}
	slack := res.Trace.DurationUS / 20
	if slack < 250 {
		slack = 250
	}
	if children > res.Trace.DurationUS {
		t.Errorf("child spans (%dµs) exceed root (%dµs)", children, res.Trace.DurationUS)
	}
	if res.Trace.DurationUS-children > slack {
		t.Errorf("unaccounted root time: root %dµs, children sum %dµs", res.Trace.DurationUS, children)
	}

	if res.Serving.Cached || res.Serving.Coalesced {
		t.Error("explain reported a cached/coalesced execution")
	}
}

// TestExplainDeterministicAcrossWorkers: explains running at once on the
// server's admission worker slots each report the evaluation table a lone
// explain reports — every request's trace is its own.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	const body = `{"tuple":["Jerry Yang","Yahoo!"]}`
	lone := decodeExplain(t, postExplain(t, newTestServer(t, Config{}), body))
	const workers = 4
	s := newTestServer(t, Config{MaxConcurrent: workers})
	got := make([]*httptest.ResponseRecorder, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = postExplain(t, s, body)
		}(i)
	}
	wg.Wait()
	for i, w := range got {
		res := decodeExplain(t, w)
		if len(res.NodeEvals) != len(lone.NodeEvals) {
			t.Fatalf("explain %d: %d node evals, lone explain has %d", i, len(res.NodeEvals), len(lone.NodeEvals))
		}
		for j := range res.NodeEvals {
			p, q := res.NodeEvals[j], lone.NodeEvals[j]
			p.EvalUS, q.EvalUS = 0, 0 // the one wall-clock field
			if fmt.Sprint(p) != fmt.Sprint(q) {
				t.Errorf("explain %d: node eval %d differs: %+v vs %+v", i, j, p, q)
			}
		}
	}
}

// TestExplainBypassesCache: explain must measure a real execution even when
// the result cache holds the answer.
func TestExplainBypassesCache(t *testing.T) {
	s := newTestServer(t, Config{})
	runs := 0
	s.execHook = func() { runs++ }
	// Warm the cache through the ordinary path.
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("warmup status = %d", w.Code)
	}
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); !decodeQuery(t, w).Cached {
		t.Fatal("second query not served from cache; cannot test bypass")
	}
	if runs != 1 {
		t.Fatalf("engine runs after warmup = %d, want 1", runs)
	}
	w := postExplain(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain status = %d", w.Code)
	}
	if runs != 2 {
		t.Errorf("engine runs after explain = %d, want 2 (cache bypassed)", runs)
	}
	if res := decodeExplain(t, w); res.Serving.Cached {
		t.Error("explain reported cached")
	}
}

// TestSlowQueryLogging: a request over the SlowQuery threshold emits a Warn
// record carrying the request id and the span breakdown, and bumps the
// slow_queries counter; the response itself is unaffected.
func TestSlowQueryLogging(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		SlowQuery: time.Nanosecond, // everything is slow
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	logged := buf.String()
	for _, want := range []string{"slow query", "request_id=", "spans=", "disposition=computed", "endpoint=/v1/query"} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log missing %q in %q", want, logged)
		}
	}
	reqID := w.Header().Get("X-Request-ID")
	if reqID == "" || !strings.Contains(logged, reqID) {
		t.Errorf("log does not carry the response's request id %q", reqID)
	}
	if snap := statz(t, s); snap.SlowQueries != 1 {
		t.Errorf("slow_queries = %d, want 1", snap.SlowQueries)
	}
}

// TestTraceModeDebugLogging: with Trace on and no slow threshold crossed,
// per-query records go to Debug — present at debug level, absent at the
// default Info level.
func TestTraceModeDebugLogging(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		Trace:  true,
		Logger: slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if logged := buf.String(); !strings.Contains(logged, "spans=") || !strings.Contains(logged, "level=DEBUG") {
		t.Errorf("trace mode did not debug-log the query: %q", logged)
	}

	var quiet bytes.Buffer
	s2 := newTestServer(t, Config{
		Trace:  true,
		Logger: slog.New(slog.NewTextHandler(&quiet, nil)), // info level
	})
	postQuery(t, s2, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if quiet.Len() != 0 {
		t.Errorf("info-level logger received trace records: %q", quiet.String())
	}
}

// TestPartialStopDisposition: an error response accompanying a partial
// (interrupted) result carries the engine's stop disposition.
func TestPartialStopDisposition(t *testing.T) {
	s := newTestServer(t, Config{})
	partial := &gqbe.Result{Stats: gqbe.Stats{Stopped: "deadline"}}
	w := httptest.NewRecorder()
	s.writeQueryError(w, fmt.Errorf("wrapped: %w", context.DeadlineExceeded), partial)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	e := decodeError(t, w)
	if e.Error.Code != "timeout" || e.Error.Stopped != "deadline" {
		t.Errorf("error = %+v, want code=timeout stopped=deadline", e.Error)
	}

	// Without a partial result the field stays absent.
	w = httptest.NewRecorder()
	s.writeQueryError(w, context.DeadlineExceeded, nil)
	if e := decodeError(t, w); e.Error.Stopped != "" {
		t.Errorf("stopped = %q on a result-less timeout, want empty", e.Error.Stopped)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	s := newTestServer(t, Config{})
	a := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`).Header().Get("X-Request-ID")
	b := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`).Header().Get("X-Request-ID")
	if a == "" || a == b {
		t.Errorf("request ids not unique: %q, %q", a, b)
	}
}

func TestExplainMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/query:explain", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", w.Code)
	}
}
