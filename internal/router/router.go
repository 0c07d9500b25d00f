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
// does the router fall back to its stale cache (Config.StaleServe) or return
// an error classified from the shard failures.
//
// The router carries its own sharded LRU result cache and singleflight group
// (clones of the daemon's, typed to merged responses), so repeated and
// concurrent identical queries cost one fan-out, not N.
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
	// CacheEntries is the merged-result cache capacity in entries (default
	// 1024); negative disables caching.
	CacheEntries int
	// CacheShards is the number of independently locked cache shards
	// (default 16).
	CacheShards int
	// StaleServe opts in to degraded serving at the fleet level: when every
	// shard fails and the router's cache retains a merged result for the key
	// (fresh or past its soft TTL), that result is served with "stale": true
	// and an Age header instead of the error. Off by default.
	StaleServe bool
	// StaleTTL is the cache's freshness horizon: entries older than this stop
	// satisfying normal lookups but remain eligible for stale serving.
	// 0 selects 1 minute; negative means entries never go stale.
	StaleTTL time.Duration
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
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.StaleTTL == 0 {
		c.StaleTTL = time.Minute
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
	cfg     Config
	shards  []*shardConn
	cache   *respCache
	flights *flightGroup
	met     *routerMetrics
	mux     *http.ServeMux

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
		cfg:     cfg,
		cache:   newRespCache(cfg.CacheEntries, cfg.CacheShards, cfg.StaleTTL),
		flights: newFlightGroup(),
		met:     newRouterMetrics(),
		mux:     http.NewServeMux(),
		idBase:  fmt.Sprintf("r%08x", uint32(time.Now().UnixNano())),
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
// HTTP exchange (status + body) or a transport error.
type shardResult struct {
	index   int
	status  int
	body    []byte
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
				res := shardResult{index: sh.index, status: resp.StatusCode, body: b, elapsed: elapsed}
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

	// How the outcome was obtained, for flags and accounting.
	cached    bool
	coalesced bool
	stale     bool
	staleAge  time.Duration
}

func errOutcome(status int, code, message string) *queryOutcome {
	return &queryOutcome{status: status, errBody: &server.ErrorBody{
		Error: server.ErrorDetail{Code: code, Message: message},
	}}
}

// canceledOutcome reports a leader outcome caused by that leader's own client
// going away — a property of its request, not of the query, so followers
// re-scatter instead of inheriting it.
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
	tuples, opts, err := req.Normalize()
	if err != nil {
		rt.met.errored.Add(1)
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	key := server.CacheKey(tuples, opts)
	timeout := rt.effectiveTimeout(req.TimeoutMillis)
	out := rt.answer(r.Context(), key, &req, opts.K, timeout, reqID)
	rt.writeOutcome(w, out)
}

// answer serves one normalized query through the router's serving stack:
// merged-result cache, then singleflight coalescing, then scatter-gather.
func (rt *Router) answer(ctx context.Context, key string, req *server.QueryRequest, k int, timeout time.Duration, reqID string) *queryOutcome {
	if req.NoCache {
		// no_cache measures the live path end to end: no router cache, no
		// coalescing (and the flag is forwarded, so shards bypass theirs too).
		return rt.scatter(ctx, key, req, k, timeout, reqID)
	}
	if resp, ok := rt.cache.get(key); ok {
		c := *resp
		c.Cached = true
		return &queryOutcome{status: http.StatusOK, resp: &c, cached: true}
	}
	f, leader := rt.flights.join(key)
	if !leader {
		select {
		case <-f.done:
			out := f.out
			if out.status == http.StatusOK && !out.stale {
				c := *out.resp
				c.Coalesced = true
				return &queryOutcome{status: http.StatusOK, resp: &c, coalesced: true}
			}
			if out.canceledClass() {
				// The leader's client went away; that says nothing about the
				// query. Run our own scatter under our own context.
				return rt.scatter(ctx, key, req, k, timeout, reqID)
			}
			return out
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return errOutcome(http.StatusGatewayTimeout, "timeout", "request deadline exceeded while coalesced")
			}
			return errOutcome(http.StatusServiceUnavailable, "canceled", "client canceled the request")
		}
	}
	// Leader: scatter, publish to followers even if the merge path panics
	// (the outcome becomes an internal error and the panic continues to the
	// handler's recover — followers must never hang on a dead leader).
	finished := false
	defer func() {
		if !finished {
			rt.flights.finish(key, f, errOutcome(http.StatusInternalServerError, "internal", "internal router error"))
		}
	}()
	out := rt.scatter(ctx, key, req, k, timeout, reqID)
	finished = true
	rt.flights.finish(key, f, out)
	return out
}

// scatter fans the query to every shard and merges the results.
func (rt *Router) scatter(ctx context.Context, key string, req *server.QueryRequest, k int, timeout time.Duration, reqID string) *queryOutcome {
	body, err := json.Marshal(req)
	if err != nil {
		return errOutcome(http.StatusInternalServerError, "internal", "re-encoding request: "+err.Error())
	}
	budget := rt.cfg.MaxQueueWait + timeout + shardBudgetSlack
	results := rt.fanout(ctx, "/v1/query", body, reqID, budget)
	return rt.mergeQuery(ctx, results, k, key, req.NoCache)
}

// mergeQuery classifies the per-shard results and builds the router-level
// outcome: a full merge (cached), a partial merge (200 + partial), a
// deterministic query error forwarded verbatim, or an all-shards-failed
// classification.
func (rt *Router) mergeQuery(ctx context.Context, results []shardResult, k int, key string, noCache bool) *queryOutcome {
	var oks []*server.QueryResponse
	var failed []shardResult
	for _, sr := range results {
		if sr.err == nil && sr.status == http.StatusOK {
			var qr server.QueryResponse
			if err := json.Unmarshal(sr.body, &qr); err != nil {
				failed = append(failed, shardResult{index: sr.index, err: fmt.Errorf("undecodable shard response: %w", err)})
				continue
			}
			oks = append(oks, &qr)
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
		return rt.allShardsFailed(ctx, failed, key, noCache)
	}
	resp := rt.mergeResponses(oks, k)
	if len(failed) > 0 {
		resp.Partial = true
		for _, f := range failed {
			resp.Missing = append(resp.Missing, shardName(f.index))
		}
		rt.met.partial.Add(1)
		// A partial merge is never cached: answers owned by the missing
		// shards are absent, and a later full query must not inherit that.
		return &queryOutcome{status: http.StatusOK, resp: resp}
	}
	if !noCache {
		rt.cache.put(key, resp)
	}
	return &queryOutcome{status: http.StatusOK, resp: resp}
}

// mergeResponses merges per-shard 200s into the single-node response: answers
// concatenated, re-sorted under the engine's total order (score desc, tie
// asc), and cut at k; stats from the lowest-index responding shard with
// timings maxed across shards (wall-clock is the slowest shard's); browned-out
// OR'd (any shard under brownout means the merged ranking may be clamped).
// Shard-level serving flags (cached/coalesced/stale) are dropped — the merged
// response carries the ROUTER's serving flags, set by the caller.
func (rt *Router) mergeResponses(oks []*server.QueryResponse, k int) *server.QueryResponse {
	base := oks[0]
	total := 0
	for _, qr := range oks {
		total += len(qr.Answers)
	}
	merged := &server.QueryResponse{
		Answers: make([]server.AnswerJSON, 0, total),
		Stats:   base.Stats,
	}
	for _, qr := range oks {
		merged.Answers = append(merged.Answers, qr.Answers...)
		merged.BrownedOut = merged.BrownedOut || qr.BrownedOut
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

// allShardsFailed classifies a query no shard answered: stale-serve if the
// operator opted in and the cache retains the key, otherwise an error derived
// deterministically from the failures (all-shed → 429; else the lowest-index
// shard's failure class).
func (rt *Router) allShardsFailed(ctx context.Context, failed []shardResult, key string, noCache bool) *queryOutcome {
	if errors.Is(ctx.Err(), context.Canceled) {
		return errOutcome(http.StatusServiceUnavailable, "canceled", "client canceled the request")
	}
	if rt.cfg.StaleServe && !noCache {
		if resp, age, ok := rt.cache.getStale(key); ok {
			c := *resp
			c.Stale = true
			rt.met.staleServed.Add(1)
			return &queryOutcome{status: http.StatusOK, resp: &c, stale: true, staleAge: age}
		}
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
		if out.cached {
			rt.met.cacheServ.Add(1)
		}
		if out.coalesced {
			rt.met.coalesced.Add(1)
		}
		if out.stale {
			w.Header().Set("Age", strconv.Itoa(int(out.staleAge/time.Second)))
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

// max is a float64 helper (the builtin arrives in newer Go releases; this
// keeps the package buildable on the toolchain floor).
func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
