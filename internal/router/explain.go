package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"gqbe/internal/server"
)

// handleExplain is POST /v1/query:explain at the fleet level: the query is
// fanned to every shard's explain endpoint, the answer lists merge exactly
// like /v1/query, and the observability payload is grafted together — the
// merged trace is rooted at the router's own "query" span with one "shard"
// child per responding shard (attrs.shard = index, duration = that shard's
// round trip), each carrying the shard's full span tree beneath it.
//
// The per-shard search payloads (MQG, lattice, node_evals, stats trajectory)
// are identical on every shard by construction — answer-space sharding runs
// ONE search trajectory fleet-wide — so those sections are taken from the
// lowest-index responding shard. Failed shards mark the response partial with
// a shard_unavailable error detail naming them; like /v1/query, that is a
// 200, not an error.
func (rt *Router) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	rt.met.requests.Add(1)
	rt.met.inFlight.Add(1)
	defer rt.met.inFlight.Add(-1)
	reqID := rt.requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	start := time.Now()
	defer func() { rt.met.totalLat.Observe(time.Since(start)) }()
	defer func() {
		if p := recover(); p != nil {
			rt.cfg.Logger.Error("panic routing explain",
				"request_id", reqID, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			rt.met.recoveredPanics.Add(1)
			rt.met.errored.Add(1)
			server.WriteError(w, http.StatusInternalServerError, "internal", "internal router error")
		}
	}()

	var req server.QueryRequest
	if !server.DecodeBody(w, r, server.MaxBodyBytes, &req) {
		rt.met.errored.Add(1)
		return
	}
	_, opts, err := req.Normalize()
	if err != nil {
		rt.met.errored.Add(1)
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	body, err := json.Marshal(&req)
	if err != nil {
		rt.met.errored.Add(1)
		server.WriteError(w, http.StatusInternalServerError, "internal", "re-encoding request: "+err.Error())
		return
	}
	timeout := rt.effectiveTimeout(req.TimeoutMillis)
	budget := rt.cfg.MaxQueueWait + timeout + shardBudgetSlack
	results := rt.fanout(r.Context(), "/v1/query:explain", body, reqID, budget)

	type shardExplain struct {
		index   int
		elapsed time.Duration
		resp    *server.ExplainJSON
	}
	var oks []shardExplain
	var failed []shardResult
	for _, sr := range results {
		if sr.err == nil && sr.status == http.StatusOK {
			var ej server.ExplainJSON
			if err := json.Unmarshal(sr.body, &ej); err == nil {
				oks = append(oks, shardExplain{index: sr.index, elapsed: sr.elapsed, resp: &ej})
				continue
			}
			failed = append(failed, shardResult{index: sr.index, err: fmt.Errorf("undecodable shard explain response")})
			continue
		}
		if sr.deterministic() {
			var eb server.ErrorBody
			if json.Unmarshal(sr.body, &eb) == nil && eb.Error.Code != "" {
				rt.met.errored.Add(1)
				server.WriteJSON(w, sr.status, &eb)
				return
			}
		}
		failed = append(failed, sr)
	}
	if len(oks) == 0 {
		rt.writeOutcome(w, rt.allShardsFailed(r.Context(), failed))
		return
	}

	base := oks[0].resp
	merged := *base
	merged.RequestID = reqID

	// Merge the ranking exactly as /v1/query does.
	var answerSets []*server.QueryResponse
	for _, se := range oks {
		answerSets = append(answerSets, &server.QueryResponse{
			Answers: se.resp.Answers,
			Stats:   se.resp.Stats,
		})
		merged.Truncated = merged.Truncated || se.resp.Truncated
	}
	qmerged := rt.mergeResponses(answerSets, opts.K)
	merged.Answers = qmerged.Answers
	merged.Stats = qmerged.Stats

	// Graft the trace: the router's root "query" span with one "shard" child
	// per responding shard carrying that shard's tree.
	root := server.SpanJSON{Name: "query"}
	for _, se := range oks {
		root.Children = append(root.Children, server.SpanJSON{
			Name:       "shard",
			DurationUS: se.elapsed.Microseconds(),
			Attrs:      map[string]int64{"shard": int64(se.index)},
			Children:   []server.SpanJSON{se.resp.Trace},
		})
	}
	root.DurationUS = time.Since(start).Microseconds()
	merged.Trace = root

	if len(failed) > 0 {
		names := make([]string, 0, len(failed))
		for _, f := range failed {
			names = append(names, shardName(f.index))
		}
		merged.Partial = true
		merged.Error = &server.ErrorDetail{
			Code:    "shard_unavailable",
			Message: "merged without " + strings.Join(names, ", "),
		}
		rt.met.partial.Add(1)
	}
	rt.met.served.Add(1)
	server.WriteJSON(w, http.StatusOK, &merged)
}
