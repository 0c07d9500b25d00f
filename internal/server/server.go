// Package server is the gqbed serving subsystem: an HTTP JSON API over one
// shared gqbe.Engine, designed for the paper's interactive workload (§V-A:
// sub-second ranked answers over a pre-hashed in-memory graph) at production
// concurrency. Three mechanisms make the engine servable:
//
//   - a bounded worker-pool admission layer, so N concurrent lattice
//     searches cannot exhaust memory (each search may materialize join
//     results up to its row budget); excess load is shed with 429 after a
//     bounded queue wait instead of queueing without limit;
//   - a sharded LRU result cache keyed by the normalized (tuples, options)
//     request, with hit/miss/eviction counters — identical repeat queries
//     are answered without touching the engine;
//   - per-request deadlines threaded as context.Context through the whole
//     pipeline (discovery, lattice construction, best-first search, hash
//     joins), so a runaway query is abandoned at the next discovery-scan,
//     node-evaluation, or join-batch boundary and the client gets a timeout
//     error;
//   - singleflight coalescing in front of the cache, so N concurrent
//     identical misses share one engine search instead of burning N worker
//     slots on the same work (see flightGroup);
//   - a batch endpoint that amortizes admission and cache lookups across a
//     request set, deduplicating identical items and bounding per-batch
//     engine concurrency (see handleBatch).
//
// The serving layer is also where query observability surfaces: every
// request can carry an obs.Tracer through admission, the engine, and the
// search coordinator, and the server exposes the result three ways —
// POST /v1/query:explain returns the full per-stage breakdown for one query,
// GET /metrics exposes Prometheus-format counters and latency histograms,
// and requests slower than Config.SlowQuery are logged with their span tree.
//
// Endpoints: POST /v1/query (single- and multi-tuple queries),
// POST /v1/query:batch, POST /v1/query:explain, GET /v1/entity/{name},
// GET /healthz, GET /statz, GET /metrics.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gqbe"
	"gqbe/internal/exec"
	"gqbe/internal/fault"
	"gqbe/internal/obs"
)

// Server-side caps on client-tunable options. The admission layer bounds
// peak memory only if each search's own budgets are bounded too — a client
// must not be able to raise the row budget (or blow up the lattice) past
// what the operator provisioned for. The MQG cap stays near the paper's
// r≈15: minimal-tree enumeration visits every spanning tree of the MQG,
// which grows exponentially with its edge count, so the library's 64-edge
// ceiling is not safe to expose to untrusted clients.
const (
	maxClientK       = 1000
	maxClientKPrime  = 4000
	maxClientDepth   = 4
	maxClientMQGSize = 20
	maxClientRows    = exec.DefaultMaxRows
	// maxClientTuples bounds a multi-tuple query: each tuple costs a full
	// discovery pass before merging, so the count is a budget like any
	// other (the paper's multi-tuple experiments use 2-3 tuples).
	maxClientTuples = 16
	// maxClientArity bounds entities per tuple: neighborhood reduction runs
	// one avoiding-BFS per query entity (the paper's tuples have 1-3).
	maxClientArity = 8
)

// Config tunes a Server. Zero fields select the defaults documented on each
// field.
type Config struct {
	// MaxConcurrent bounds simultaneous lattice searches (default 8).
	MaxConcurrent int
	// MaxQueueWait is how long a request may wait for a worker slot before
	// being shed with 429 (default 1s).
	MaxQueueWait time.Duration
	// DefaultTimeout is the per-query deadline when the request does not ask
	// for one (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for (default 60s).
	MaxTimeout time.Duration
	// CacheEntries is the result cache capacity in entries (default 1024);
	// negative disables caching.
	CacheEntries int
	// CacheShards is the number of independently locked cache shards
	// (default 16).
	CacheShards int
	// CacheMaxEntryBytes skips caching results whose approximate size
	// exceeds it (default 256KiB): an entry-count bound alone would let a
	// few huge k=1000 results pin unbounded memory.
	CacheMaxEntryBytes int
	// CacheMinLatency is the admission floor of the result cache: results
	// whose engine search completed faster than this are not cached — they
	// are cheaper to recompute than to evict real work for (default 1ms).
	// Any negative value disables the floor and caches everything; the
	// negative sentinel survives normalization, so filling a Config twice
	// (WithDefaults then New) cannot silently re-enable the floor.
	CacheMinLatency time.Duration
	// MaxBatchItems caps how many queries one POST /v1/query:batch request
	// may carry (default 64).
	MaxBatchItems int
	// MaxBatchConcurrency bounds how many of one batch's distinct queries
	// run at once (default 4, never above MaxConcurrent): a single batch
	// must not monopolize the worker pool against interactive traffic.
	MaxBatchConcurrency int
	// Trace attaches a tracer to every query, so each request's span tree is
	// recorded (and debug-logged) even below the SlowQuery threshold.
	// /v1/query:explain is always traced regardless of this setting; plain
	// /v1/query responses never carry trace data either way — tracing
	// changes no answers, only what the server can log about them.
	Trace bool
	// SlowQuery, when positive, logs a structured slow-query record — tuple,
	// request id, outcome, stats, and the full span breakdown — for every
	// request whose total handling time reaches it. Zero disables slow-query
	// logging.
	SlowQuery time.Duration
	// Logger receives the server's structured logs (slow queries, per-query
	// debug records, panic reports). Nil selects slog.Default().
	Logger *slog.Logger
	// Reload, when non-nil, is the engine loader behind hot reload
	// (POST /admin/reload, and SIGHUP in gqbed): it builds a candidate engine
	// from the configured sources and returns it, or an error when the
	// sources are unusable (corrupt snapshot, missing file). A failed load
	// rejects the reload and the serving engine is retained untouched. Nil
	// disables the endpoint (501).
	Reload func() (*gqbe.Engine, error)
	// StaleServe opts in to degraded serving: when live computation fails
	// with a server-side error (shed by admission, internal fault, engine
	// failure) and the result cache still holds an entry for the key — fresh
	// or past its soft TTL — that entry is served with "stale": true and an
	// Age header instead of the error. Off by default: silently serving old
	// answers must be an operator's explicit choice.
	StaleServe bool
	// StaleTTL is the result cache's freshness horizon: entries older than
	// this stop satisfying normal lookups (the query recomputes) but remain
	// eligible for stale serving. 0 selects 1 minute; negative means entries
	// never go stale.
	StaleTTL time.Duration
	// BrownoutQueue, when positive, engages brownout mode while the
	// admission queue depth is at or past it: searches run with KPrime
	// clamped to BrownoutKPrime and evaluations capped at
	// BrownoutMaxEvaluations, and answers are labeled "browned_out" —
	// partial service under sustained saturation instead of pure shedding.
	// 0 disables brownout.
	BrownoutQueue int
	// BrownoutKPrime is the candidate-list clamp under brownout (default 32;
	// the paper's default k′ is 100+).
	BrownoutKPrime int
	// BrownoutMaxEvaluations caps lattice-node evaluations per search under
	// brownout (default 512).
	BrownoutMaxEvaluations int
}

// WithDefaults returns c with every unset field filled in and the
// MaxTimeout ≥ DefaultTimeout invariant applied — the effective policy the
// server runs with. Callers deriving dependent settings (e.g. an HTTP
// WriteTimeout covering the longest allowed query) should read this rather
// than re-implementing the defaulting rules.
func (c Config) WithDefaults() Config {
	c.fill()
	return c
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	// MaxTimeout caps every effective deadline, including the default one.
	if c.MaxTimeout < c.DefaultTimeout {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheMaxEntryBytes <= 0 {
		c.CacheMaxEntryBytes = 256 << 10
	}
	if c.CacheMinLatency == 0 {
		c.CacheMinLatency = time.Millisecond
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.MaxBatchConcurrency <= 0 {
		c.MaxBatchConcurrency = 4
	}
	if c.MaxBatchConcurrency > c.MaxConcurrent {
		c.MaxBatchConcurrency = c.MaxConcurrent
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.StaleTTL == 0 {
		c.StaleTTL = time.Minute
	}
	if c.BrownoutKPrime <= 0 {
		c.BrownoutKPrime = 32
	}
	if c.BrownoutMaxEvaluations <= 0 {
		c.BrownoutMaxEvaluations = 512
	}
}

// maxBodyBytes bounds a query request body; tuples are entity names, so even
// generous multi-tuple queries are far below this.
const maxBodyBytes = 1 << 20

// errInternal is the sentinel a panicking search publishes to its flight's
// followers; classifyQueryError maps it to a generic 500 so panic detail
// stays in the server log, never in a response.
var errInternal = errors.New("server: internal error")

// engineGen pairs a serving engine with its hot-reload generation. The
// server holds the current one behind an atomic pointer; every request
// captures it exactly once at entry and uses that capture throughout, so a
// reload mid-request can never mix two engines in one answer, and in-flight
// requests finish on the engine they started with (never dropped by a swap).
// Cache and singleflight keys embed the generation, so results computed on
// one engine are unreachable from another.
//
// The generation is reference counted so memory-mapped engines can be
// unmapped safely: refs holds one publish reference (owned by the server
// while the generation is current) plus one per in-flight request. Reload
// drops the publish reference after the swap; whoever brings the count to
// zero — the last draining request, or the reload itself when none are in
// flight — closes the engine. Heap engines ride the same lifecycle (their
// Close is a no-op), so the invariant is uniform.
type engineGen struct {
	eng  *gqbe.Engine
	gen  uint64
	refs atomic.Int64
}

// acquire takes a reference, failing when the count has already drained to
// zero (the engine is closed or closing). A failure is only possible after
// the generation has been unpublished, so callers just reload the pointer.
func (eg *engineGen) acquire() bool {
	for {
		n := eg.refs.Load()
		if n <= 0 {
			return false
		}
		if eg.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference, closing the engine when the count reaches
// zero. Safe to call from any goroutine; exactly one caller observes zero.
func (eg *engineGen) release() {
	if eg.refs.Add(-1) == 0 {
		_ = eg.eng.Close()
	}
}

// Server serves query-by-example requests over one immutable engine (per
// generation — hot reload swaps in a new immutable engine atomically). It is
// an http.Handler; all state it mutates is safe for concurrent use.
type Server struct {
	engp    atomic.Pointer[engineGen]
	cfg     Config
	adm     *admission
	cache   *resultCache
	flights *flightGroup
	met     *serverMetrics
	mux     *http.ServeMux

	// reloadMu serializes hot reloads: concurrent triggers (SIGHUP racing
	// POST /admin/reload) must not both load a candidate and fight over the
	// generation counter.
	reloadMu sync.Mutex

	// reqSeq numbers requests within this process; combined with idBase
	// (stamped from the start time at construction) it yields request IDs
	// unique across restarts, so interleaved logs from two daemon runs never
	// collide.
	reqSeq atomic.Uint64
	idBase string
	// retrySeq feeds the deterministic jitter of shed responses'
	// Retry-After; see retryAfterSeconds.
	retrySeq atomic.Uint64

	// explainNodeEvalCap / explainSpanCap bound the explain response's two
	// unbounded-by-nature lists (per-node evaluation table, trace tree);
	// past either cap the response is cut and marked "truncated". Set from
	// the package defaults in New; tests may lower them before serving.
	explainNodeEvalCap int
	explainSpanCap     int

	// execHook, when non-nil, is called at the start of every real engine
	// execution (after admission, before the search). Tests use it to count
	// and gate engine runs; it must be set before the first request.
	execHook func()
}

// New builds a Server over eng with cfg's serving policy.
func New(eng *gqbe.Engine, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:                cfg,
		adm:                newAdmission(cfg.MaxConcurrent, cfg.MaxQueueWait),
		cache:              newResultCache(cfg.CacheEntries, cfg.CacheShards),
		flights:            newFlightGroup(),
		met:                newServerMetrics(),
		mux:                http.NewServeMux(),
		idBase:             fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),
		explainNodeEvalCap: defaultExplainMaxNodeEvals,
		explainSpanCap:     defaultExplainMaxSpans,
	}
	first := &engineGen{eng: eng, gen: 1}
	first.refs.Store(1) // publish reference
	s.engp.Store(first)
	if s.cache != nil && cfg.StaleTTL > 0 {
		s.cache.softTTL = cfg.StaleTTL
	}
	// Method routing is done in the handlers (not mux patterns) so the
	// binary behaves identically across Go releases.
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/query:batch", s.handleBatch)
	s.mux.HandleFunc("/v1/query:explain", s.handleExplain)
	s.mux.HandleFunc("/v1/entity/", s.handleEntity)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/admin/reload", s.handleReload)
	return s
}

// engine peeks at the current engine generation without taking a
// reference — safe only for reading gen. Request handlers that touch the
// engine use acquireEngine instead.
func (s *Server) engine() *engineGen { return s.engp.Load() }

// acquireEngine returns the current generation with a reference held; the
// caller must release() it when done with the engine (typically deferred
// for the whole request). Acquisition can only fail in the instant between
// a reload unpublishing a generation and this goroutine reloading the
// pointer, so the loop terminates after at most one extra load per
// concurrent reload.
func (s *Server) acquireEngine() *engineGen {
	for {
		eg := s.engp.Load()
		if eg.acquire() {
			return eg
		}
	}
}

// nextRequestID mints the request ID echoed in the X-Request-ID header and
// carried by every structured log record for the request.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.reqSeq.Add(1))
}

// requestID resolves the request's ID: a valid inbound X-Request-ID header is
// adopted (so a fleet router's ID survives the router→shard hop and the
// shard's logs and explain traces correlate with the router's), anything else
// gets a freshly minted one. The header is untrusted input, hence the
// sanitizer: IDs land verbatim in log records and response headers.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return s.nextRequestID()
}

// validRequestID bounds adopted request IDs to 1..64 bytes of
// [A-Za-z0-9._-]: enough for UUIDs and the daemon's own host-seq format,
// nothing that can split a log line or smuggle header bytes.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// newTracer returns a tracer when the observability config wants one for
// ordinary queries (tracing on, or a slow-query threshold to attribute), and
// nil — the zero-cost disabled state — otherwise.
func (s *Server) newTracer() *obs.Tracer {
	if s.cfg.Trace || s.cfg.SlowQuery > 0 {
		return obs.New()
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the uniform error JSON: {"error":{"code":...,"message":...}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Stopped carries the engine's stop disposition ("deadline" or
	// "canceled") when an interrupted search still assembled a partial
	// result before the error: the client can tell a search cut off
	// mid-exploration from one that never got to run.
	Stopped string `json:"stopped,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: message}})
}

// decodeBody decodes r's JSON body into dst under the byte limit, rejecting
// unknown fields. On failure it writes the error response (413 for an
// oversized body, 400 otherwise) and returns false; metric accounting is the
// caller's.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// queryRequest is the POST /v1/query body. Exactly one of Tuple and Tuples
// must be set; unset option fields select the engine defaults.
type queryRequest struct {
	Tuple  []string   `json:"tuple,omitempty"`
	Tuples [][]string `json:"tuples,omitempty"`

	K              int `json:"k,omitempty"`
	KPrime         int `json:"kprime,omitempty"`
	Depth          int `json:"depth,omitempty"`
	MQGSize        int `json:"mqg_size,omitempty"`
	MaxRows        int `json:"max_rows,omitempty"`
	MaxEvaluations int `json:"max_evaluations,omitempty"`

	// TimeoutMillis bounds this query; 0 means the server default. Values
	// beyond the server's MaxTimeout are clamped to it.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (both lookup and
	// fill), for benchmarking and debugging.
	NoCache bool `json:"no_cache,omitempty"`
}

// answerJSON is one ranked answer in a query response.
type answerJSON struct {
	Entities []string `json:"entities"`
	Score    float64  `json:"score"`
	// Tie is the answer's deterministic tie-break key (gqbe.Answer.Key).
	// Equal-score answers are ordered by it, so a scatter-gather router can
	// re-merge per-shard rankings under (score desc, tie asc) and reproduce
	// the single-node order exactly — scores alone cannot order ties.
	Tie string `json:"tie,omitempty"`
}

// statsJSON mirrors gqbe.Stats with wire-friendly units.
type statsJSON struct {
	DiscoveryMS    float64 `json:"discovery_ms"`
	MergeMS        float64 `json:"merge_ms,omitempty"`
	ProcessingMS   float64 `json:"processing_ms"`
	MQGEdges       int     `json:"mqg_edges"`
	NodesEvaluated int     `json:"nodes_evaluated"`
	Stopped        string  `json:"stopped"`
	Terminated     bool    `json:"terminated"`
}

// queryResponse is the POST /v1/query success body (and one item's result
// in a /v1/query:batch response).
type queryResponse struct {
	Answers []answerJSON `json:"answers"`
	Stats   statsJSON    `json:"stats"`
	Cached  bool         `json:"cached"`
	// Coalesced marks an answer obtained by joining an identical in-flight
	// search instead of running one.
	Coalesced bool `json:"coalesced,omitempty"`
	// Deduped marks a batch item answered by an identical item in the same
	// batch.
	Deduped bool `json:"deduped,omitempty"`
	// Stale marks a degraded answer: the live computation failed and a
	// previously computed result was served in its place (its age rides in
	// the response's Age header). Only possible with Config.StaleServe on.
	Stale bool `json:"stale,omitempty"`
	// BrownedOut marks an answer computed under the brownout clamp (reduced
	// candidate list and evaluation budget): correct as far as it goes, but
	// possibly missing answers a full search would have ranked.
	BrownedOut bool `json:"browned_out,omitempty"`
	// Partial marks a fleet answer merged without every shard: the listed
	// shards failed or timed out, so answers they own are absent from the
	// ranking. Single-node servers never set these; only the router
	// (internal/router) does, and it returns such answers as 200s — a
	// degraded ranking is an answer, not an error.
	Partial bool     `json:"partial,omitempty"`
	Missing []string `json:"missing_shards,omitempty"`
}

// Request-validation sentinels. normalize's errors cross the server
// boundary as 400 bodies and batch per-item errors; package-level sentinels
// (wrapped with %w where the message needs the offending numbers) keep them
// matchable with errors.Is instead of minting a fresh anonymous error per
// request.
var (
	errTupleForms     = errors.New(`set either "tuple" or "tuples", not both`)
	errTupleRequired  = errors.New(`one of "tuple" or "tuples" is required`)
	errTooManyTuples  = errors.New("too many query tuples per request")
	errEmptyTuple     = errors.New("empty query tuple")
	errTupleTooWide   = errors.New("too many entities per tuple")
	errArityMismatch  = errors.New("query tuples must share one arity")
	errEmptyEntity    = errors.New("empty entity name in query tuple")
	errNegativeOption = errors.New("option values must be non-negative")
)

// normalize validates the request and returns the canonical tuple list and
// options: single-tuple requests become one-element tuple lists and default
// option values are made explicit, so equivalent requests share a cache key.
func (q *queryRequest) normalize() ([][]string, gqbe.Options, error) {
	var tuples [][]string
	switch {
	case len(q.Tuple) > 0 && len(q.Tuples) > 0:
		return nil, gqbe.Options{}, errTupleForms
	case len(q.Tuple) > 0:
		tuples = [][]string{q.Tuple}
	case len(q.Tuples) > 0:
		tuples = q.Tuples
	default:
		return nil, gqbe.Options{}, errTupleRequired
	}
	if len(tuples) > maxClientTuples {
		return nil, gqbe.Options{}, fmt.Errorf("%w: at most %d (got %d)", errTooManyTuples, maxClientTuples, len(tuples))
	}
	arity := len(tuples[0])
	for _, t := range tuples {
		if len(t) == 0 {
			return nil, gqbe.Options{}, errEmptyTuple
		}
		if len(t) > maxClientArity {
			return nil, gqbe.Options{}, fmt.Errorf("%w: at most %d (got %d)", errTupleTooWide, maxClientArity, len(t))
		}
		if len(t) != arity {
			return nil, gqbe.Options{}, fmt.Errorf("%w (got %d and %d)", errArityMismatch, arity, len(t))
		}
		for _, e := range t {
			if e == "" {
				return nil, gqbe.Options{}, errEmptyEntity
			}
		}
	}
	if q.K < 0 || q.KPrime < 0 || q.Depth < 0 || q.MQGSize < 0 || q.MaxRows < 0 || q.MaxEvaluations < 0 || q.TimeoutMillis < 0 {
		return nil, gqbe.Options{}, errNegativeOption
	}
	// Clamp client-tunable budgets to the server-side caps before
	// normalization, so capped requests also share cache keys with their
	// clamped equivalents.
	clamp := func(v *int, max int) {
		if *v > max {
			*v = max
		}
	}
	clamp(&q.K, maxClientK)
	clamp(&q.KPrime, maxClientKPrime)
	clamp(&q.Depth, maxClientDepth)
	clamp(&q.MQGSize, maxClientMQGSize)
	clamp(&q.MaxRows, maxClientRows)

	// Make the engine's defaults explicit so that e.g. {"k":10} and {} hit
	// one cache entry; Normalized delegates to the engine's own fill rules.
	opts := (&gqbe.Options{
		K:              q.K,
		KPrime:         q.KPrime,
		Depth:          q.Depth,
		MQGSize:        q.MQGSize,
		MaxRows:        q.MaxRows,
		MaxEvaluations: q.MaxEvaluations,
	}).Normalized()
	return tuples, opts, nil
}

// cacheKeyFor encodes the normalized request as the cache key. Every entity
// name is length-prefixed, so names containing any byte sequence — including
// would-be separators — cannot make two structurally different requests
// collide. Tuple order is preserved (multi-tuple merge weighting is
// order-sensitive in principle, so distinct orders are distinct queries).
func cacheKeyFor(tuples [][]string, o gqbe.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", len(tuples))
	for _, t := range tuples {
		fmt.Fprintf(&b, "%d|", len(t))
		for _, e := range t {
			fmt.Fprintf(&b, "%d:%s", len(e), e)
		}
	}
	fmt.Fprintf(&b, "k=%d;kp=%d;d=%d;r=%d;mr=%d;me=%d",
		o.K, o.KPrime, o.Depth, o.MQGSize, o.MaxRows, o.MaxEvaluations)
	return b.String()
}

// keyFor is the serving-layer cache/singleflight key: the normalized request
// key prefixed with the engine generation. The prefix is what makes hot
// reload safe against the cache and the flight group without locking either:
// results computed on generation N live under "gN|…" keys no generation N+1
// request ever constructs, so a swap can never serve a pre-reload answer or
// coalesce requests across engines.
func keyFor(eg *engineGen, tuples [][]string, o gqbe.Options) string {
	return "g" + strconv.FormatUint(eg.gen, 10) + "|" + cacheKeyFor(tuples, o)
}

// handleQuery is POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
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
	// Recover engine panics into a 500 (matching the batch path): letting
	// them reach net/http's recover would kill the connection with the
	// request counted in `requests` but in no outcome counter, silently
	// breaking the /statz accounting invariant.
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Logger.Error("panic serving query",
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
	// Resolve entity names before admission: an unknown name is answerable
	// in microseconds, so it must not take a worker slot nor be recorded as
	// a search latency (which would drag the /statz percentiles toward 0).
	if name, ok := unknownEntity(eg.eng, tuples); !ok {
		s.met.errored.Add(1)
		writeError(w, http.StatusNotFound, "unknown_entity", fmt.Sprintf("unknown entity %q", name))
		return
	}

	tr := s.newTracer()
	key := keyFor(eg, tuples, opts)
	res, flags, err := s.answer(r.Context(), eg, key, tuples, opts, s.effectiveTimeout(req.TimeoutMillis), req.NoCache, nil, tr)
	s.logQuery(reqID, "/v1/query", tuples, time.Since(start), res, flags, err, tr.Finish())
	if err != nil {
		s.writeQueryError(w, err, res)
		return
	}
	if flags.cached {
		s.met.cacheServ.Add(1)
	}
	if flags.stale {
		// RFC 9111's Age semantics fit exactly: seconds since the response
		// was generated. Clients distinguishing "fresh" from "old but
		// served anyway" read this alongside "stale": true.
		w.Header().Set("Age", strconv.Itoa(int(flags.staleAge/time.Second)))
	}
	s.met.served.Add(1)
	writeJSON(w, http.StatusOK, toResponse(res, flags))
}

// effectiveTimeout resolves a request's timeout_ms against the server's
// default and cap. The clamp happens in milliseconds, before the Duration
// multiplication: a huge timeout_ms would otherwise overflow int64
// nanoseconds and wrap past the MaxTimeout comparison.
func (s *Server) effectiveTimeout(timeoutMillis int) time.Duration {
	if timeoutMillis <= 0 {
		return s.cfg.DefaultTimeout
	}
	ms := timeoutMillis
	if maxMS := int(s.cfg.MaxTimeout / time.Millisecond); ms > maxMS {
		ms = maxMS
	}
	return time.Duration(ms) * time.Millisecond
}

// answerFlags says how a query was satisfied without engine work of its own,
// and which degraded modes shaped the answer.
type answerFlags struct {
	cached    bool // served from the result cache
	coalesced bool // served by joining an identical in-flight search
	deduped   bool // (batch only) served by an identical item in the same batch

	stale      bool          // live computation failed; a retained cache entry was served
	staleAge   time.Duration // age of that entry (Age response header)
	brownedOut bool          // computed under the brownout clamp
}

// answer serves one normalized query through the full serving stack: result
// cache, then singleflight coalescing, then admission + engine. It is the
// shared core of /v1/query and /v1/query:batch.
//
// gate, when non-nil, is a batch's local concurrency bound: it is held only
// around real engine runs — cache hits and coalescing followers consume
// neither a gate slot nor a worker slot, so a batch of mostly-warm queries
// overlaps fully. /v1/query passes nil.
//
// Cache hits and coalesced answers are counted but deliberately NOT recorded
// in the search-latency histogram: their microsecond-to-wait times would
// drown out search latencies and collapse the /statz percentiles as the
// cache warms. The histogram measures engine work — see execute.
//
// tr, when non-nil, receives the serving-stage spans: "admission.wait" and
// "engine" on paths that run the engine, "singleflight.wait" when this
// request follows another's flight. It is nil-safe and adds no cost when
// disabled.
//
// With Config.StaleServe on, a server-side failure from the live path falls
// back to the cache's retained entry for the key (fresh or past its soft
// TTL): the client gets an old correct answer labeled stale instead of an
// error. Client-attributable outcomes — cancellation, deadline (which may
// carry a partial result), unknown entities — are never masked this way.
func (s *Server) answer(ctx context.Context, eg *engineGen, key string, tuples [][]string, opts gqbe.Options, timeout time.Duration, noCache bool, gate chan struct{}, tr *obs.Tracer) (*gqbe.Result, answerFlags, error) {
	res, flags, err := s.answerLive(ctx, eg, key, tuples, opts, timeout, noCache, gate, tr)
	// no_cache requests asked to measure the live path; degrading them to a
	// cached entry would defeat their purpose.
	if err == nil || noCache || !s.cfg.StaleServe || !staleEligible(err) {
		return res, flags, err
	}
	sres, age, ok := s.cache.getStale(key)
	if !ok {
		return res, flags, err
	}
	s.met.staleServed.Add(1)
	return sres, answerFlags{stale: true, staleAge: age}, nil
}

// staleEligible reports whether an execution error is a server-side failure
// that stale serving may mask: shedding, internal faults, engine failures.
// Cancellation and deadline belong to the client's request (a deadline may
// even carry a partial result), and an unknown entity can never have a
// cached answer — none of those are served stale.
func staleEligible(err error) bool {
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, gqbe.ErrUnknownEntity)
}

// answerLive is answer's live path: cache, singleflight, admission + engine.
func (s *Server) answerLive(ctx context.Context, eg *engineGen, key string, tuples [][]string, opts gqbe.Options, timeout time.Duration, noCache bool, gate chan struct{}, tr *obs.Tracer) (*gqbe.Result, answerFlags, error) {
	acquireGate := func(waitOn context.Context) error {
		if gate == nil {
			return nil
		}
		select {
		case gate <- struct{}{}:
			return nil
		case <-waitOn.Done():
			return waitOn.Err()
		}
	}
	releaseGate := func() {
		if gate != nil {
			<-gate
		}
	}
	if noCache {
		// no_cache exists to measure the engine, so it bypasses the flight
		// group too: it must neither read shared state nor publish its
		// result to followers.
		if err := acquireGate(ctx); err != nil {
			return nil, answerFlags{}, err
		}
		defer releaseGate()
		res, _, bo, err := s.execute(ctx, eg, tuples, opts, timeout, nil, tr)
		return res, answerFlags{brownedOut: bo}, err
	}
	if res, ok := s.cache.get(key); ok {
		return res, answerFlags{cached: true}, nil
	}
	// The wait budget is created once and spans retries, so a follower can
	// never wait — or, after promotion to leader, compute — longer than its
	// own budget no matter how many leaders die under it. The budget is
	// queue wait plus search deadline: a directly served request gets both
	// (admission wait is bounded separately from the search timeout), so a
	// coalesced one must too, or it would 504 on searches it had the budget
	// to survive. (A first-join leader gets its own deadline inside execute
	// and never reads this one.)
	wait, waitCancel := context.WithTimeout(ctx, s.cfg.MaxQueueWait+timeout)
	defer waitCancel()
	internalRetried := false
	for retried := false; ; retried = true {
		if retried {
			// An interleaved flight may have completed and cached the result
			// while this request waited on a dead leader; a hit here avoids
			// a redundant search.
			if res, ok := s.cache.get(key); ok {
				return res, answerFlags{cached: true}, nil
			}
		}
		// A promoted follower has already spent part of its budget waiting:
		// gate waits and the execution (the qctx inside execute takes the
		// tighter deadline) run under the remaining wait budget, not a
		// fresh full timeout.
		runCtx := ctx
		if retried {
			runCtx = wait
		}
		var f *flight
		leader := false
		if gate == nil {
			f, leader = s.flights.join(key)
		} else if ef, ok := s.flights.joinExisting(key); ok {
			// A flight is already live: follow it gate-free — the gate
			// bounds this batch's engine runs, and following runs nothing.
			f = ef
		} else {
			// Take the gate slot BEFORE leadership: a leader stalled on the
			// gate would hold its key's flight hostage — every external
			// request for the key would coalesce onto a leader that has not
			// even started, instead of running on free workers.
			if err := acquireGate(runCtx); err != nil {
				return nil, answerFlags{}, err
			}
			f, leader = s.flights.join(key)
			if !leader {
				releaseGate() // lost the creation race; follow gate-free
			}
		}
		if leader {
			defer releaseGate() // deferred so an engine panic cannot leak a gate slot
			res, err := s.runFlight(runCtx, eg, key, f, tuples, opts, timeout, tr)
			return res, answerFlags{brownedOut: f.brownedOut}, err
		}
		// The follower's whole wait is one span: on a retry loop each wait on
		// a fresh flight gets its own.
		wsp := tr.Start("singleflight.wait")
		select {
		case <-f.done:
			wsp.End()
			if f.err != nil && errors.Is(f.err, errSaturated) {
				// The leader was shed after its full queue wait. Re-entering
				// the flight group would serialize the followers into one
				// admission attempt per MaxQueueWait — converting fast 429
				// backpressure into tail 504s — so each follower instead
				// makes its own concurrent admission attempt under its
				// remaining budget, exactly as if it had never coalesced.
				// At worst a freed-up slot lets a few duplicates search.
				if err := acquireGate(wait); err != nil {
					return nil, answerFlags{}, err
				}
				defer releaseGate()
				res, searched, bo, err := s.execute(wait, eg, tuples, opts, timeout, nil, tr)
				if err == nil && wait.Err() == nil && !bo {
					s.cachePut(key, res, searched)
				}
				return res, answerFlags{brownedOut: bo}, err
			}
			if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				// The leader died of its own context — client abort or a
				// shorter deadline than ours. That outcome is a property of
				// the leader's request, not of the query, so retry: join the
				// next flight or become its leader. Only deterministic
				// query-level outcomes (results, unknown-entity/disconnected
				// errors) are shared.
				if errors.Is(f.err, context.DeadlineExceeded) {
					// ...unless the re-run is provably doomed: a retry only
					// helps when this request can give the search strictly
					// more time than the dead leader's actual search got
					// (admission queueing excluded — a leader that queued
					// 900ms and searched 100ms says nothing about needing
					// 1s; one that died before admission ran no search at
					// all and says nothing, so the retry proceeds).
					// Otherwise, burning a worker slot just to time out
					// later is the exact hot-key waste coalescing prevents.
					searched := f.searchElapsed()
					if d, ok := wait.Deadline(); ok && searched > 0 && time.Until(d) <= searched {
						return nil, answerFlags{}, context.DeadlineExceeded
					}
				}
				continue
			}
			if f.err != nil && errors.Is(f.err, errInternal) {
				// A panicking leader is a transient server fault, not a
				// shared answer: instead of poisoning every follower with the
				// leader's 500, each follower retries once — joining the next
				// flight or leading its own — and only reports the internal
				// failure if the retry hits one too.
				if internalRetried {
					return nil, answerFlags{}, f.err
				}
				internalRetried = true
				continue
			}
			s.met.coalesced.Add(1)
			return f.res, answerFlags{coalesced: true, brownedOut: f.brownedOut}, f.err
		case <-wait.Done():
			// The follower's own deadline (or client) expired while the
			// leader was still computing; the leader is unaffected.
			wsp.End()
			return nil, answerFlags{}, wait.Err()
		}
	}
}

// runFlight executes the search as key's flight leader, caching a successful
// result and guaranteeing the flight is finished — followers released — even
// if the engine panics.
func (s *Server) runFlight(ctx context.Context, eg *engineGen, key string, f *flight, tuples [][]string, opts gqbe.Options, timeout time.Duration, tr *obs.Tracer) (res *gqbe.Result, err error) {
	var searched time.Duration
	var brownedOut bool
	defer func() {
		if p := recover(); p != nil {
			// Followers get the sentinel, not the panic text: an engine
			// panic is a server fault (500-class), and its detail belongs in
			// the server log (net/http prints the re-panic), not on clients.
			s.flights.finish(key, f, nil, errInternal)
			panic(p)
		}
		// A result produced under a canceled leader context is never cached:
		// the search may have been abandoned mid-pipeline, and a truncated
		// answer set must not be served as the query's answer forever. A
		// browned-out result is likewise not cached — it would turn a
		// transient overload into a permanently degraded answer for the key.
		if err == nil && ctx.Err() == nil && !brownedOut {
			s.cachePut(key, res, searched)
		}
		// Cache before finish: a request arriving in between then hits the
		// cache instead of starting a redundant flight.
		f.brownedOut = brownedOut
		s.flights.finish(key, f, res, err)
	}()
	// Stamp the search start (post-admission) on the flight: followers use
	// it to judge whether retrying a timed-out leader could ever succeed.
	res, searched, brownedOut, err = s.execute(ctx, eg, tuples, opts, timeout, func() { f.searchStarted = time.Now() }, tr)
	return res, err
}

// cachePut stores a successful search result unless the cache admission
// policy skips it: results over the per-entry byte bound would pin too much
// memory, and results computed faster than CacheMinLatency are cheaper to
// recompute than to evict real work for (counted in cache_skipped_fast).
func (s *Server) cachePut(key string, res *gqbe.Result, searched time.Duration) {
	if approxResultBytes(res) > s.cfg.CacheMaxEntryBytes {
		return
	}
	// A negative floor is the disabled sentinel; searched is never
	// negative, so the comparison admits everything.
	if searched < s.cfg.CacheMinLatency {
		s.met.cacheSkippedFast.Add(1)
		return
	}
	s.cache.put(key, res)
}

// approxResultBytes estimates a result's retained size for the cache's
// per-entry byte bound: entity name bytes plus slice/struct overheads.
func approxResultBytes(res *gqbe.Result) int {
	n := 256 // Result + Stats
	for _, a := range res.Answers {
		n += 48 // Answer struct + slice header
		for _, e := range a.Entities {
			n += len(e) + 16
		}
	}
	return n
}

// minRecordedFailure is the duration floor for recording failed queries in
// the search-latency histogram: failures at least this slow did real engine
// work (a row-budget blow-up after seconds of joining, a deep neighborhood
// scan ending in ErrDisconnected) and belong in the percentiles, while
// microsecond validation-class failures would only drag them toward zero.
const minRecordedFailure = time.Millisecond

// execute runs the query under admission and its deadline, recording the
// search time (and only it — queue wait and response writing excluded) in
// the search-latency histogram and returning it so callers can apply
// latency-gated policies (the cache admission floor). Recording is gated on
// outcome: successes and timeouts always count (timeouts are by construction
// the slowest queries; excluding them would understate the tail), other
// failures count only past the minRecordedFailure floor — keeping fast
// validation-style failures out of the histogram for the same reason the
// unknown-entity pre-check and the cache-hit path are. The queue-wait
// histogram, by contrast, records every admission attempt: a shed request's
// full MaxQueueWait is exactly the saturation signal that series exists for.
// The worker slot guards the search only: it is released when execute
// returns, before any response bytes are written, so a slow-reading client
// cannot pin a slot.
func (s *Server) execute(ctx context.Context, eg *engineGen, tuples [][]string, opts gqbe.Options, timeout time.Duration, onAdmitted func(), tr *obs.Tracer) (res *gqbe.Result, searched time.Duration, brownedOut bool, err error) {
	// Brownout is judged at arrival, before this request joins the queue:
	// standing queue depth is the sustained-saturation signal (it only
	// builds while every slot stays busy), and clamping the searches that
	// are about to run is what drains it.
	if s.brownoutActive() {
		brownedOut = true
		s.met.brownouts.Add(1)
		opts = brownoutClamp(opts, s.cfg)
	}
	// Take a worker slot before running a search. Cache hits in the caller
	// deliberately skip admission — they cost microseconds.
	asp := tr.Start("admission.wait")
	admStart := time.Now()
	admErr := s.adm.acquire(ctx)
	s.met.queueLat.Observe(time.Since(admStart))
	asp.End()
	if admErr != nil {
		return nil, 0, brownedOut, admErr
	}
	defer s.adm.release()
	if onAdmitted != nil {
		onAdmitted()
	}
	if s.execHook != nil {
		s.execHook()
	}
	// The tracer is applied here — after cache-key construction, for every
	// path that reaches the engine (query, batch, no_cache, explain) — so a
	// traced request records the engine's own stage spans under the
	// "engine" span below.
	opts.Tracer = tr
	start := time.Now()
	defer func() {
		searched = time.Since(start)
		if err == nil || errors.Is(err, context.DeadlineExceeded) || searched >= minRecordedFailure {
			s.met.searchLat.Observe(searched)
		}
	}()
	qctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	esp := tr.Start("engine")
	defer esp.End()
	// Naked return: `searched` is assigned by the deferred histogram block
	// above, which runs after res/err are set.
	if len(tuples) == 1 {
		res, err = eg.eng.QueryCtx(qctx, tuples[0], &opts)
	} else {
		res, err = eg.eng.QueryMultiCtx(qctx, tuples, &opts)
	}
	return
}

// brownoutActive reports sustained saturation: a standing admission queue at
// or past the configured depth, or the forced fault point (the deterministic
// driver for brownout tests).
func (s *Server) brownoutActive() bool {
	if fault.Fires(fault.BrownoutForce) {
		return true
	}
	return s.cfg.BrownoutQueue > 0 && s.adm.queueDepth() >= s.cfg.BrownoutQueue
}

// brownoutClamp applies the degraded search budget: a short candidate list
// and a hard evaluation cap, so each admitted search finishes in a small,
// predictable slice of the engine's normal work and the queue drains.
func brownoutClamp(opts gqbe.Options, cfg Config) gqbe.Options {
	if opts.KPrime > cfg.BrownoutKPrime {
		opts.KPrime = cfg.BrownoutKPrime
	}
	if opts.K > opts.KPrime {
		opts.K = opts.KPrime
	}
	if opts.MaxEvaluations == 0 || opts.MaxEvaluations > cfg.BrownoutMaxEvaluations {
		opts.MaxEvaluations = cfg.BrownoutMaxEvaluations
	}
	return opts
}

// writeQueryError maps a query execution error to the API's error
// vocabulary, bumping the matching outcome counter. res, when non-nil, is
// the partial result an interrupted (deadline/canceled) search still
// assembled; its stop disposition rides along in the error detail.
func (s *Server) writeQueryError(w http.ResponseWriter, err error, res *gqbe.Result) {
	status, detail := s.classifyQueryError(err)
	if res != nil && res.Stats.Stopped != "" {
		detail.Stopped = res.Stats.Stopped
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, status, errorBody{Error: detail})
}

// classifyQueryError is the single place execution errors become (status,
// error detail) pairs and outcome counters — shared by /v1/query and each
// /v1/query:batch item, so both report identically on /statz. Every call
// accounts one request's outcome; for a deduped batch group it runs once per
// item, keeping requests == served + errored + rejected + timeouts +
// canceled exact.
func (s *Server) classifyQueryError(err error) (int, errorDetail) {
	switch {
	case errors.Is(err, errSaturated):
		s.met.rejected.Add(1)
		return http.StatusTooManyRequests, errorDetail{Code: "overloaded",
			Message: "all workers busy; retry later"}
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		return http.StatusGatewayTimeout, errorDetail{Code: "timeout",
			Message: "query exceeded its deadline and was canceled"}
	case errors.Is(err, context.Canceled):
		// Client aborts are not server faults: tracked apart from errored
		// so /statz error rates stay meaningful for alerting.
		s.met.canceled.Add(1)
		return http.StatusServiceUnavailable, errorDetail{Code: "canceled", Message: "query canceled"}
	case errors.Is(err, errInternal):
		// A server fault (an engine panic published by a panicking flight
		// leader), not a property of the query: 500, with the detail kept
		// out of the response (the recovery site already logged the stack
		// and counted it).
		s.met.errored.Add(1)
		return http.StatusInternalServerError, errorDetail{Code: "internal", Message: "internal server error"}
	case errors.Is(err, gqbe.ErrUnknownEntity):
		s.met.errored.Add(1)
		return http.StatusNotFound, errorDetail{Code: "unknown_entity", Message: err.Error()}
	default:
		// Engine-reported failures (disconnected tuple, row-budget blow-up,
		// oversized MQG) are properties of the query, not server faults.
		s.met.errored.Add(1)
		return http.StatusUnprocessableEntity, errorDetail{Code: "query_failed", Message: err.Error()}
	}
}

func toStatsJSON(res *gqbe.Result) statsJSON {
	toMS := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return statsJSON{
		DiscoveryMS:    toMS(res.Stats.Discovery),
		MergeMS:        toMS(res.Stats.Merge),
		ProcessingMS:   toMS(res.Stats.Processing),
		MQGEdges:       res.Stats.MQGEdges,
		NodesEvaluated: res.Stats.NodesEvaluated,
		Stopped:        res.Stats.Stopped,
		Terminated:     res.Stats.Terminated,
	}
}

func toAnswersJSON(res *gqbe.Result) []answerJSON {
	out := make([]answerJSON, 0, len(res.Answers))
	for _, a := range res.Answers {
		out = append(out, answerJSON{Entities: a.Entities, Score: a.Score, Tie: a.Key})
	}
	return out
}

func toResponse(res *gqbe.Result, flags answerFlags) queryResponse {
	return queryResponse{
		Answers:    toAnswersJSON(res),
		Stats:      toStatsJSON(res),
		Cached:     flags.cached,
		Coalesced:  flags.coalesced,
		Deduped:    flags.deduped,
		Stale:      flags.stale,
		BrownedOut: flags.brownedOut,
	}
}

// entityResponse is the GET /v1/entity/{name} success body; a 200 itself
// means the entity exists (unknown names get the 404 error body).
type entityResponse struct {
	Name string `json:"name"`
}

// handleEntity is GET /v1/entity/{name}; the name is URL-escaped.
func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	raw := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/entity/")
	name, err := url.PathUnescape(raw)
	if err != nil || name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing or malformed entity name")
		return
	}
	eg := s.acquireEngine()
	defer eg.release()
	if !eg.eng.HasEntity(name) {
		writeError(w, http.StatusNotFound, "unknown_entity", fmt.Sprintf("unknown entity %q", name))
		return
	}
	writeJSON(w, http.StatusOK, entityResponse{Name: name})
}

// handleHealthz is GET /healthz: cheap liveness plus graph shape.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	eg := s.acquireEngine()
	defer eg.release()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"entities":   eg.eng.NumEntities(),
		"facts":      eg.eng.NumFacts(),
		"generation": eg.gen,
	})
}

// handleStatz is GET /statz: the serving metrics snapshot.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	eg := s.acquireEngine()
	defer eg.release()
	info := eg.eng.BuildInfo()
	snap := s.met.snapshot(s.cache, s.adm, statzEngine{
		Entities:   eg.eng.NumEntities(),
		Facts:      eg.eng.NumFacts(),
		Predicates: eg.eng.NumPredicates(),
	}, statzBuild{
		BuildMS:     float64(info.BuildTime) / float64(time.Millisecond),
		Shards:      info.Shards,
		Snapshot:    info.FromSnapshot,
		Mapped:      info.Mapped,
		MappedBytes: info.MappedBytes,
	}, fault.Injected(), eg.gen)
	if index, count := eg.eng.Shard(); count > 1 {
		snap.Shard = &statzShard{Index: index, Count: count}
	}
	writeJSON(w, http.StatusOK, snap)
}
