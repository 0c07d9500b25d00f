// Package router is the fleet front end for sharded gqbed deployments: a
// gqbed-compatible HTTP server that fans each query out to every shard
// daemon, merges the per-shard rankings, and returns a response bit-identical
// to what one unsharded daemon would have produced (the oracle suite in this
// package pins that equivalence).
//
// The fleet is answer-space sharded (see internal/topk): every shard holds
// the full graph and runs the identical search trajectory, but keeps only the
// answers whose pivot entity it owns. The per-shard top-k lists therefore
// partition the single-node top-k, and merging them under the total order
// (score desc, tie asc) and cutting at k reconstructs it exactly. The tie key
// rides in each answer's "tie" field, so the merge needs no engine state.
//
// Degraded mode is first-class: a slow or dead shard never turns a query into
// a 500. If at least one shard answers, the merged ranking is returned as a
// 200 with "partial": true and the missing shards named in "missing_shards" —
// a degraded ranking is an answer, not an error. Only when every shard fails
// does the router return an error classified from the shard failures.
//
// The router keeps no cache of its own: each shard daemon caches, coalesces
// and (with gqbed -stale-serve) stale-serves its part of the answer, and the
// merge carries those labels through — cached and coalesced when every shard
// says so, stale when any shard does, with the oldest shard answer's Age.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gqbe/internal/obs"
	"gqbe/internal/server"
)

// Config tunes a Router. Zero fields select the defaults documented on each
// field; the query-policy fields (timeouts, queue wait) should match the
// shard daemons' so the router's admission view agrees with theirs.
type Config struct {
	// Shards are the shard daemons' base URLs in shard-index order
	// (http://host:port). Required; order must match the fleet manifest.
	Shards []string
	// Client issues the shard requests. Nil selects a client with pooled
	// keep-alive connections per shard.
	Client *http.Client
	// DefaultTimeout is the per-query deadline when the request does not ask
	// for one (default 10s) — used to size the per-shard call budget.
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for (default 60s).
	MaxTimeout time.Duration
	// MaxQueueWait mirrors the shards' admission queue bound (default 1s);
	// the per-shard call budget is queue wait + query deadline + slack.
	MaxQueueWait time.Duration
	// Retries is how many times one shard call is retried after a transport
	// error (connection refused, reset) within its budget. HTTP error
	// statuses are never retried — the shard spoke, the answer is its
	// answer. 0 selects 1; negative disables retries.
	Retries int
	// Logger receives the router's structured logs. Nil selects
	// slog.Default().
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = time.Second
	}
	switch {
	case c.Retries == 0:
		c.Retries = 1
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
}

// shardBudgetSlack is the network/serialization headroom added to each
// shard call's budget on top of the shard's own worst case (queue wait +
// query deadline): the shard enforces the real deadline, the router's budget
// is the backstop that detects a hung shard.
const shardBudgetSlack = 500 * time.Millisecond

// maxShardRespBytes bounds one shard response read — defensive only (shards
// are trusted backends; their own caps keep responses far below this).
const maxShardRespBytes = 64 << 20

// shardConn is the router's view of one shard daemon.
type shardConn struct {
	index    int
	base     string // base URL, no trailing slash
	requests atomic.Uint64
	errors   atomic.Uint64
	lat      *obs.Histogram
}

// shardName renders a shard's index the way responses and logs name it
// ("missing_shards": ["shard-1"]).
func shardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// Router is the fleet front end. It is an http.Handler serving the same
// endpoint surface as a gqbed daemon; all state it mutates is safe for
// concurrent use.
type Router struct {
	cfg    Config
	shards []*shardConn
	met    *routerMetrics
	mux    *http.ServeMux

	reqSeq atomic.Uint64
	idBase string
}

// New builds a Router over cfg's shard fleet.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	cfg.fill()
	rt := &Router{
		cfg:    cfg,
		met:    newRouterMetrics(),
		mux:    http.NewServeMux(),
		idBase: fmt.Sprintf("r%08x", uint32(time.Now().UnixNano())),
	}
	for i, raw := range cfg.Shards {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("router: shard %d URL %q is not an http(s) base URL", i, raw)
		}
		rt.shards = append(rt.shards, &shardConn{
			index: i,
			base:  strings.TrimRight(raw, "/"),
			lat:   obs.NewHistogram(obs.DefaultLatencyBuckets),
		})
	}
	rt.mux.HandleFunc("/v1/query", rt.handleQuery)
	rt.mux.HandleFunc("/v1/query:explain", rt.handleExplain)
	rt.mux.HandleFunc("/v1/entity/", rt.handleEntity)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/statz", rt.handleStatz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Shards returns the number of shards the router fans out to.
func (rt *Router) Shards() int { return len(rt.shards) }

// requestID resolves the request's ID exactly as a shard daemon would: a
// valid inbound X-Request-ID is adopted, anything else gets a minted one. The
// resolved ID is propagated to every shard call, so one fleet query shares
// one ID across the router's and all shards' logs and traces.
func (rt *Router) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); server.ValidRequestID(id) {
		return id
	}
	return fmt.Sprintf("%s-%06d", rt.idBase, rt.reqSeq.Add(1))
}

// effectiveTimeout resolves a request's timeout_ms against the router's
// default and cap, clamping in milliseconds before the Duration multiply
// (mirrors the server's rule so router and shard agree on the budget).
func (rt *Router) effectiveTimeout(timeoutMillis int) time.Duration {
	if timeoutMillis <= 0 {
		return rt.cfg.DefaultTimeout
	}
	ms := timeoutMillis
	if maxMS := int(rt.cfg.MaxTimeout / time.Millisecond); ms > maxMS {
		ms = maxMS
	}
	return time.Duration(ms) * time.Millisecond
}

// shardResult is one shard's reply to a fanned-out call: either a decoded
// HTTP exchange (status, body and the Age header a stale answer carries) or
// a transport error.
type shardResult struct {
	index   int
	status  int
	body    []byte
	age     string
	elapsed time.Duration
	err     error
}

// failed reports whether the result counts as a shard failure for merge
// purposes. Deterministic query-level statuses are NOT failures: every shard
// runs the same validation on the same body, so a 400/404/413/422 is the
// query's answer, not the shard's health.
func (r shardResult) failed() bool {
	if r.err != nil {
		return true
	}
	switch r.status {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
		http.StatusMethodNotAllowed:
		return false
	default: // 429, 500, 503, 504, anything exotic
		return true
	}
}

// deterministic reports whether the result is a query-level error every
// shard agrees on (safe to forward verbatim).
func (r shardResult) deterministic() bool {
	return r.err == nil && r.status != http.StatusOK && !r.failed()
}

// fanout POSTs body to path on every shard concurrently and returns the
// per-shard results in shard-index order.
func (rt *Router) fanout(ctx context.Context, path string, body []byte, reqID string, budget time.Duration) []shardResult {
	results := make([]shardResult, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = rt.callShard(ctx, rt.shards[i], path, body, reqID, budget)
		}(i)
	}
	wg.Wait()
	return results
}

// callShard performs one shard call under its budget, retrying transport
// errors (never HTTP statuses) up to Config.Retries times while budget
// remains.
func (rt *Router) callShard(ctx context.Context, sh *shardConn, path string, body []byte, reqID string, budget time.Duration) shardResult {
	cctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	start := time.Now()
	var last error
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		rt.met.fanout.Add(1)
		sh.requests.Add(1)
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, sh.base+path, bytes.NewReader(body))
		if err != nil {
			last = err
			break
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", reqID)
		resp, err := rt.cfg.Client.Do(req)
		if err == nil {
			b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxShardRespBytes))
			resp.Body.Close()
			if rerr == nil {
				elapsed := time.Since(start)
				sh.lat.Observe(elapsed)
				rt.met.shardLat.Observe(elapsed)
				res := shardResult{index: sh.index, status: resp.StatusCode, body: b,
					age: resp.Header.Get("Age"), elapsed: elapsed}
				if res.failed() {
					sh.errors.Add(1)
					rt.met.shardErrors.Add(1)
				}
				return res
			}
			err = rerr
		}
		last = err
		if cctx.Err() != nil {
			break // budget spent; a retry cannot complete
		}
	}
	sh.errors.Add(1)
	rt.met.shardErrors.Add(1)
	return shardResult{index: sh.index, elapsed: time.Since(start), err: last}
}

// queryOutcome is the router-level disposition of one query: a merged 200
// (possibly partial or stale) or a classified error.
type queryOutcome struct {
	status  int
	resp    *server.QueryResponse // set when status == 200
	errBody *server.ErrorBody     // set otherwise
	age     int                   // Age header of a stale merge: its oldest shard answer's, in seconds
}

func errOutcome(status int, code, message string) *queryOutcome {
	return &queryOutcome{status: status, errBody: &server.ErrorBody{
		Error: server.ErrorDetail{Code: code, Message: message},
	}}
}

// canceledClass reports an outcome caused by the client going away.
func (o *queryOutcome) canceledClass() bool {
	return o.status != http.StatusOK && o.errBody != nil && o.errBody.Error.Code == "canceled"
}

// handleQuery is POST /v1/query: validate once, fan out, merge.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
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
			rt.cfg.Logger.Error("panic routing query",
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
	timeout := rt.effectiveTimeout(req.TimeoutMillis)
	rt.writeOutcome(w, rt.scatter(r.Context(), &req, opts.K, timeout, reqID))
}

// scatter fans the query to every shard and merges the results. no_cache
// rides along in the re-encoded body, so the shards bypass their caches.
func (rt *Router) scatter(ctx context.Context, req *server.QueryRequest, k int, timeout time.Duration, reqID string) *queryOutcome {
	body, err := json.Marshal(req)
	if err != nil {
		return errOutcome(http.StatusInternalServerError, "internal", "re-encoding request: "+err.Error())
	}
	budget := rt.cfg.MaxQueueWait + timeout + shardBudgetSlack
	results := rt.fanout(ctx, "/v1/query", body, reqID, budget)
	return rt.mergeQuery(ctx, results, k)
}

// mergeQuery classifies the per-shard results and builds the router-level
// outcome: a full merge, a partial merge (200 + partial), a deterministic
// query error forwarded verbatim, or an all-shards-failed classification.
// The merged response's Age is the largest a merged shard sent.
func (rt *Router) mergeQuery(ctx context.Context, results []shardResult, k int) *queryOutcome {
	var oks []*server.QueryResponse
	var failed []shardResult
	age := 0
	for _, sr := range results {
		if sr.err == nil && sr.status == http.StatusOK {
			var qr server.QueryResponse
			if err := json.Unmarshal(sr.body, &qr); err != nil {
				failed = append(failed, shardResult{index: sr.index, err: fmt.Errorf("undecodable shard response: %w", err)})
				continue
			}
			oks = append(oks, &qr)
			if a, err := strconv.Atoi(sr.age); err == nil {
				age = max(age, a)
			}
			continue
		}
		if sr.deterministic() {
			// Every shard runs the same validation on the same body; the
			// first (lowest-index) such verdict is the query's verdict.
			var eb server.ErrorBody
			if json.Unmarshal(sr.body, &eb) == nil && eb.Error.Code != "" {
				return &queryOutcome{status: sr.status, errBody: &eb}
			}
		}
		failed = append(failed, sr)
	}
	if len(oks) == 0 {
		return rt.allShardsFailed(ctx, failed)
	}
	resp := rt.mergeResponses(oks, k)
	if len(failed) > 0 {
		resp.Partial = true
		for _, f := range failed {
			resp.Missing = append(resp.Missing, shardName(f.index))
		}
		rt.met.partial.Add(1)
	}
	return &queryOutcome{status: http.StatusOK, resp: resp, age: age}
}

// mergeResponses merges per-shard 200s into the single-node response: answers
// concatenated, re-sorted under the engine's total order (score desc, tie
// asc), and cut at k; stats from the lowest-index responding shard with
// timings maxed across shards (wall-clock is the slowest shard's). Browned-out
// and stale are OR'd: any shard under brownout means the merged ranking may
// be clamped, and any shard's stale answer makes the merge stale. Cached and
// coalesced are AND'd: the merge did no search only if no shard did one.
func (rt *Router) mergeResponses(oks []*server.QueryResponse, k int) *server.QueryResponse {
	base := oks[0]
	total := 0
	for _, qr := range oks {
		total += len(qr.Answers)
	}
	merged := &server.QueryResponse{
		Answers:   make([]server.AnswerJSON, 0, total),
		Stats:     base.Stats,
		Cached:    true,
		Coalesced: true,
	}
	for _, qr := range oks {
		merged.Answers = append(merged.Answers, qr.Answers...)
		merged.BrownedOut = merged.BrownedOut || qr.BrownedOut
		merged.Stale = merged.Stale || qr.Stale
		merged.Cached = merged.Cached && qr.Cached
		merged.Coalesced = merged.Coalesced && qr.Coalesced
		if qr == base {
			continue
		}
		s := &merged.Stats
		s.DiscoveryMS = max(s.DiscoveryMS, qr.Stats.DiscoveryMS)
		s.MergeMS = max(s.MergeMS, qr.Stats.MergeMS)
		s.ProcessingMS = max(s.ProcessingMS, qr.Stats.ProcessingMS)
		// Non-timing stats are trajectory facts: identical on every shard by
		// construction. A mismatch means the fleet is not running one search
		// — mismatched binaries or a corrupted shard — worth an alarm, but
		// the merge proceeds on the lowest-index shard's word.
		if qr.Stats.MQGEdges != base.Stats.MQGEdges ||
			qr.Stats.NodesEvaluated != base.Stats.NodesEvaluated ||
			qr.Stats.Stopped != base.Stats.Stopped ||
			qr.Stats.Terminated != base.Stats.Terminated {
			rt.met.statsMismatch.Add(1)
			rt.cfg.Logger.Warn("shard stats mismatch: fleet is not running one trajectory",
				"base_evaluated", base.Stats.NodesEvaluated, "shard_evaluated", qr.Stats.NodesEvaluated)
		}
	}
	sortAnswers(merged.Answers)
	if len(merged.Answers) > k {
		merged.Answers = merged.Answers[:k]
	}
	return merged
}

// sortAnswers applies the engine's deterministic answer order: score
// descending, tie key ascending. Tie keys are unique per answer tuple, so
// this is a total order and the merged ranking is reproducible.
func sortAnswers(answers []server.AnswerJSON) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Score != answers[j].Score {
			return answers[i].Score > answers[j].Score
		}
		return answers[i].Tie < answers[j].Tie
	})
}

// allShardsFailed classifies a query no shard answered into an error derived
// deterministically from the failures (all-shed → 429; else the lowest-index
// shard's failure class).
func (rt *Router) allShardsFailed(ctx context.Context, failed []shardResult) *queryOutcome {
	if errors.Is(ctx.Err(), context.Canceled) {
		return errOutcome(http.StatusServiceUnavailable, "canceled", "client canceled the request")
	}
	all429 := len(failed) > 0
	for _, f := range failed {
		if f.err != nil || f.status != http.StatusTooManyRequests {
			all429 = false
		}
	}
	if all429 {
		return errOutcome(http.StatusTooManyRequests, "overloaded", "every shard shed the request")
	}
	// Deterministic pick: the lowest-index failed shard names the outcome.
	f := failed[0]
	switch {
	case f.err == nil && f.status == http.StatusGatewayTimeout:
		return errOutcome(http.StatusGatewayTimeout, "timeout",
			fmt.Sprintf("%s timed out and no shard answered", shardName(f.index)))
	case f.err != nil && errors.Is(f.err, context.DeadlineExceeded):
		return errOutcome(http.StatusGatewayTimeout, "timeout",
			fmt.Sprintf("%s did not respond within its budget and no shard answered", shardName(f.index)))
	default:
		return errOutcome(http.StatusServiceUnavailable, "shard_unavailable",
			fmt.Sprintf("%s unavailable and no shard answered", shardName(f.index)))
	}
}

// writeOutcome writes the outcome and lands it in exactly one outcome
// counter, preserving the /statz accounting invariant
// (requests == served + errored + rejected + timeouts + canceled + in flight).
func (rt *Router) writeOutcome(w http.ResponseWriter, out *queryOutcome) {
	if out.status == http.StatusOK {
		rt.met.served.Add(1)
		if out.resp.Stale {
			w.Header().Set("Age", strconv.Itoa(out.age))
		}
		server.WriteJSON(w, http.StatusOK, out.resp)
		return
	}
	switch {
	case out.status == http.StatusTooManyRequests:
		rt.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
	case out.status == http.StatusGatewayTimeout:
		rt.met.timeouts.Add(1)
	case out.canceledClass():
		rt.met.canceled.Add(1)
	default:
		rt.met.errored.Add(1)
	}
	server.WriteJSON(w, out.status, out.errBody)
}

// handleEntity is GET /v1/entity/{name}: every shard holds the full graph,
// so the lookup is proxied to shards in index order until one answers; the
// first HTTP response (200 or 404 alike) is forwarded verbatim.
func (rt *Router) handleEntity(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	reqID := rt.requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	for _, sh := range rt.shards {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, sh.base+r.URL.EscapedPath(), nil)
		if err != nil {
			break
		}
		req.Header.Set("X-Request-ID", reqID)
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			sh.errors.Add(1)
			rt.met.shardErrors.Add(1)
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxShardRespBytes))
		resp.Body.Close()
		if rerr != nil {
			sh.errors.Add(1)
			rt.met.shardErrors.Add(1)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
		return
	}
	server.WriteError(w, http.StatusServiceUnavailable, "shard_unavailable", "no shard reachable")
}
