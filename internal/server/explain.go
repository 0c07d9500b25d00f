package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"gqbe"
	"gqbe/internal/obs"
)

// explainMQGNode is one node of the explain response's MQG rendering.
type explainMQGNode struct {
	Name    string `json:"name"`
	Virtual bool   `json:"virtual,omitempty"`
	Entity  bool   `json:"entity,omitempty"`
}

// explainMQGEdge is one weighted MQG edge; src/dst index the nodes list, and
// the edge's position in the list is the bit the lattice's edge bitmasks
// (and node_evals[].edges) refer to.
type explainMQGEdge struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Label  string  `json:"label"`
	Weight float64 `json:"weight"`
}

// explainMQG is the derived maximal query graph (Alg. 1) as the explain
// response renders it.
type explainMQG struct {
	Nodes []explainMQGNode `json:"nodes"`
	Edges []explainMQGEdge `json:"edges"`
}

// explainLattice summarizes the best-first lattice search (Alg. 2 + 3):
// candidate nodes generated, evaluated, pruned unevaluated, evaluated-empty
// (null), upper-frontier recomputations, the most rows held at once, and
// why the search stopped.
type explainLattice struct {
	Generated              int    `json:"generated"`
	Evaluated              int    `json:"evaluated"`
	Pruned                 int    `json:"pruned"`
	Null                   int    `json:"null"`
	FrontierRecomputations int    `json:"frontier_recomputations"`
	PeakLiveRows           int    `json:"peak_live_rows"`
	StopReason             string `json:"stop_reason"`
}

// explainNodeEval is one lattice-node evaluation in the search's
// deterministic pop order: which MQG edges the node's query graph kept
// (indices into mqg.edges), the bound and score that ranked it, and what its
// join produced.
type explainNodeEval struct {
	Edges      []int   `json:"edges"`
	UpperBound float64 `json:"upper_bound"`
	Score      float64 `json:"structure_score"`
	Rows       int     `json:"rows"`
	Null       bool    `json:"null,omitempty"`
	Skipped    bool    `json:"skipped,omitempty"`
	EvalUS     int64   `json:"eval_us"`
}

// Default caps on the explain response's two unbounded lists. A k=1000,
// depth-4 query can evaluate tens of thousands of lattice nodes; replaying
// every one into node_evals (and its span into the trace tree) would build
// multi-megabyte responses from a legitimate request. Past either cap the
// response sets "truncated": true; the kept prefix is the meaningful one —
// node_evals is in deterministic pop order and spans are kept depth-first.
const (
	defaultExplainMaxNodeEvals = 512
	defaultExplainMaxSpans     = 2048
)

// spanJSON is one span of the explain response's trace tree; offsets and
// durations are microseconds from the trace root's start.
type spanJSON struct {
	Name       string           `json:"name"`
	StartUS    int64            `json:"start_us"`
	DurationUS int64            `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []spanJSON       `json:"children,omitempty"`
}

// explainServing is the serving-stack disposition of the explained request.
// Cached and coalesced are always false today — explain bypasses the result
// cache and the singleflight group so it measures a real execution — but the
// fields are explicit so the schema states that, rather than implying it.
type explainServing struct {
	QueueWaitMS float64 `json:"queue_wait_ms"`
	TimeoutMS   float64 `json:"timeout_ms"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced"`
}

// explainResponse is the POST /v1/query:explain success body: the ordinary
// answer plus everything the tracer saw. A partial (deadline/canceled)
// result is still a 200 with partial=true and the interruption in error.
type explainResponse struct {
	RequestID string            `json:"request_id"`
	Answers   []answerJSON      `json:"answers"`
	Stats     statsJSON         `json:"stats"`
	Partial   bool              `json:"partial,omitempty"`
	Error     *errorDetail      `json:"error,omitempty"`
	MQG       *explainMQG       `json:"mqg,omitempty"`
	Lattice   explainLattice    `json:"lattice"`
	NodeEvals []explainNodeEval `json:"node_evals"`
	Trace     spanJSON          `json:"trace"`
	Serving   explainServing    `json:"serving"`
	// Truncated marks a response whose node_evals and/or trace tree were cut
	// at the server's size caps; lattice/stats still describe the full
	// search (e.g. stats.nodes_evaluated may exceed len(node_evals)).
	Truncated bool `json:"truncated,omitempty"`
}

// handleExplain is POST /v1/query:explain: the same request body as
// /v1/query, answered with the full observability surface — per-stage span
// tree, MQG rendering, lattice summary, and the per-node evaluation table.
// Explain always runs a real engine search (result cache and singleflight
// bypassed, nothing cached back), because its entire point is to measure
// this execution; it still takes a worker slot through admission like any
// other search, so a flood of explains cannot starve serving traffic.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	s.met.requests.Add(1)
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	reqID := s.requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	start := time.Now()
	defer func() { s.met.totalLat.Observe(time.Since(start)) }()
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Logger.Error("panic serving explain",
				"request_id", reqID, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			s.met.recoveredPanics.Add(1)
			s.met.errored.Add(1)
			writeError(w, http.StatusInternalServerError, "internal", "internal server error")
		}
	}()

	var req queryRequest
	if !decodeBody(w, r, maxBodyBytes, &req) {
		s.met.errored.Add(1)
		return
	}
	tuples, opts, err := req.normalize()
	if err != nil {
		s.met.errored.Add(1)
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	eg := s.acquireEngine()
	defer eg.release()
	if name, ok := unknownEntity(eg.eng, tuples); !ok {
		s.met.errored.Add(1)
		writeError(w, http.StatusNotFound, "unknown_entity", fmt.Sprintf("unknown entity %q", name))
		return
	}

	// Explain is always traced, whatever the server's Trace setting.
	tr := obs.New()
	timeout := s.effectiveTimeout(req.TimeoutMillis)
	key := keyFor(eg, tuples, opts)
	res, flags, err := s.answer(r.Context(), eg, key, tuples, opts, timeout, true, tr)
	total := time.Since(start)
	root := tr.Finish()
	s.logQuery(reqID, "/v1/query:explain", tuples, total, res, flags, err, root)
	if err != nil && res == nil {
		s.writeQueryError(w, err, nil)
		return
	}
	// A full answer, or a partial one from an interrupted search: both are
	// served explains (the accounting invariant places every request in
	// exactly one outcome bucket).
	s.met.served.Add(1)
	truncated := false
	evals := tr.NodeEvals()
	if len(evals) > s.explainNodeEvalCap {
		evals = evals[:s.explainNodeEvalCap]
		truncated = true
	}
	spanBudget := s.explainSpanCap - 1 // the root span is always kept
	resp := explainResponse{
		RequestID: reqID,
		Answers:   toAnswersJSON(res),
		Stats:     toStatsJSON(res),
		MQG:       toExplainMQG(res.MQG),
		Lattice: explainLattice{
			Generated:              res.Stats.NodesGenerated,
			Evaluated:              res.Stats.NodesEvaluated,
			Pruned:                 res.Stats.NodesPruned,
			Null:                   res.Stats.NullNodes,
			FrontierRecomputations: res.Stats.FrontierRecomputes,
			PeakLiveRows:           res.Stats.PeakLiveRows,
			StopReason:             res.Stats.Stopped,
		},
		NodeEvals: toExplainNodeEvals(evals),
		Trace:     spanToJSON(root, &spanBudget, &truncated),
		Serving: explainServing{
			QueueWaitMS: float64(queueWaitOf(root)) / float64(time.Millisecond),
			TimeoutMS:   float64(timeout) / float64(time.Millisecond),
			Cached:      flags.cached,
			Coalesced:   flags.coalesced,
		},
		Truncated: truncated,
	}
	if err != nil {
		resp.Partial = true
		code := "timeout"
		if errors.Is(err, context.Canceled) {
			code = "canceled"
		}
		resp.Error = &errorDetail{Code: code, Message: err.Error(), Stopped: res.Stats.Stopped}
	}
	writeJSON(w, http.StatusOK, resp)
}

func toExplainMQG(m *gqbe.MQGInfo) *explainMQG {
	if m == nil {
		return nil
	}
	out := &explainMQG{
		Nodes: make([]explainMQGNode, 0, len(m.Nodes)),
		Edges: make([]explainMQGEdge, 0, len(m.Edges)),
	}
	for _, n := range m.Nodes {
		out.Nodes = append(out.Nodes, explainMQGNode{Name: n.Name, Virtual: n.Virtual, Entity: n.Entity})
	}
	for _, e := range m.Edges {
		out.Edges = append(out.Edges, explainMQGEdge{Src: e.Src, Dst: e.Dst, Label: e.Label, Weight: e.Weight})
	}
	return out
}

func toExplainNodeEvals(evals []obs.NodeEval) []explainNodeEval {
	out := make([]explainNodeEval, 0, len(evals))
	for _, e := range evals {
		ne := explainNodeEval{
			Edges:      make([]int, 0, e.Edges),
			UpperBound: e.UpperBound,
			Score:      e.SScore,
			Rows:       e.Rows,
			Null:       e.Null,
			Skipped:    e.Skipped,
			EvalUS:     e.EvalMicros,
		}
		for i := 0; i < 64; i++ {
			if e.Node&(1<<uint(i)) != 0 {
				ne.Edges = append(ne.Edges, i)
			}
		}
		out = append(out, ne)
	}
	return out
}

// spanToJSON converts a span tree depth-first under a shared span budget
// (the converted span itself is the caller's cost; children each consume one
// unit). When the budget runs out, remaining children are dropped and
// *truncated is set — earlier (pipeline-ordered) spans are the kept prefix.
func spanToJSON(sp *obs.Span, budget *int, truncated *bool) spanJSON {
	out := spanJSON{
		Name:       sp.Name,
		StartUS:    sp.Start.Microseconds(),
		DurationUS: sp.Duration.Microseconds(),
	}
	if len(sp.Attrs) > 0 {
		out.Attrs = make(map[string]int64, len(sp.Attrs))
		for _, a := range sp.Attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	for _, c := range sp.Children {
		if *budget <= 0 {
			*truncated = true
			break
		}
		*budget--
		out.Children = append(out.Children, spanToJSON(c, budget, truncated))
	}
	return out
}
