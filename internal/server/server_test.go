package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gqbe"
	"gqbe/internal/testkg"
)

// fig1Engine builds a public engine over the paper's Fig. 1 excerpt.
func fig1Engine(t *testing.T) *gqbe.Engine {
	t.Helper()
	b := gqbe.NewBuilder()
	for _, tr := range testkg.Fig1Triples() {
		b.Add(tr[0], tr[1], tr[2])
	}
	eng, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return eng
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	// The Fig. 1 test engine answers in microseconds, so the default cache
	// admission floor (1ms) would reject every result; tests not exercising
	// the floor itself run with it disabled.
	if cfg.CacheMinLatency == 0 {
		cfg.CacheMinLatency = -1
	}
	return New(fig1Engine(t), cfg)
}

// postQuery sends body to POST /v1/query and returns the recorder.
func postQuery(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeQuery(t *testing.T, w *httptest.ResponseRecorder) queryResponse {
	t.Helper()
	var out queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return out
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var out errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding error response %q: %v", w.Body.String(), err)
	}
	return out
}

func TestQueryHappyPath(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	res := decodeQuery(t, w)
	if len(res.Answers) == 0 {
		t.Fatal("no answers for the Fig. 1 founder query")
	}
	if res.Cached {
		t.Error("first query reported cached")
	}
	if res.Stats.Stopped == "" {
		t.Error("stats.stopped is empty; expected a stop reason")
	}
	for _, a := range res.Answers {
		if len(a.Entities) != 2 {
			t.Fatalf("answer arity = %d, want 2 (%v)", len(a.Entities), a.Entities)
		}
	}
}

func TestQueryMultiTuple(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postQuery(t, s, `{"tuples":[["Jerry Yang","Yahoo!"],["Sergey Brin","Google"]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if res := decodeQuery(t, w); len(res.Answers) == 0 {
		t.Fatal("no answers for the multi-tuple query")
	}
}

func TestQueryUnknownEntity(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postQuery(t, s, `{"tuple":["Nobody Anybody","Yahoo!"]}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "unknown_entity" {
		t.Errorf("error code = %q, want unknown_entity", e.Error.Code)
	}
}

func TestQueryMalformedBody(t *testing.T) {
	s := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"truncated JSON":     `{"tuple":["Jerry Yang"`,
		"no tuples":          `{}`,
		"both tuple forms":   `{"tuple":["A"],"tuples":[["B"]]}`,
		"empty tuple":        `{"tuples":[[]]}`,
		"empty entity":       `{"tuple":[""]}`,
		"mixed arity":        `{"tuples":[["A","B"],["C"]]}`,
		"negative option":    `{"tuple":["Jerry Yang","Yahoo!"],"k":-1}`,
		"unknown field typo": `{"tupel":["Jerry Yang","Yahoo!"]}`,
	} {
		w := postQuery(t, s, body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", name, w.Code, w.Body.String())
			continue
		}
		if e := decodeError(t, w); e.Error.Code != "bad_request" {
			t.Errorf("%s: error code = %q, want bad_request", name, e.Error.Code)
		}
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	s := newTestServer(t, Config{})
	big := `{"tuple":["Jerry Yang","` + strings.Repeat("x", maxBodyBytes) + `"]}`
	w := postQuery(t, s, big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", w.Code, w.Body.String()[:120])
	}
	if e := decodeError(t, w); e.Error.Code != "body_too_large" {
		t.Errorf("error code = %q, want body_too_large", e.Error.Code)
	}
}

func TestQueryMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", w.Code)
	}
}

func TestQueryDeadlineExceeded(t *testing.T) {
	// A 1ns server-side deadline is already expired by the first context
	// check inside the engine, so the query deterministically proves that
	// cancellation reaches the pipeline and surfaces as a timeout error.
	s := newTestServer(t, Config{DefaultTimeout: time.Nanosecond})
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "timeout" {
		t.Errorf("error code = %q, want timeout", e.Error.Code)
	}

	// The requested timeout_ms is clamped to MaxTimeout, so a tiny
	// MaxTimeout forces the same expired deadline through the request path
	// (DefaultTimeout is pinned too: MaxTimeout is never below it).
	s2 := newTestServer(t, Config{DefaultTimeout: time.Nanosecond, MaxTimeout: time.Nanosecond})
	w2 := postQuery(t, s2, `{"tuple":["Jerry Yang","Yahoo!"],"timeout_ms":1}`)
	if w2.Code != http.StatusGatewayTimeout {
		t.Fatalf("clamped: status = %d, want 504; body %s", w2.Code, w2.Body.String())
	}
	if stz := statz(t, s2); stz.Timeouts == 0 {
		t.Error("statz.timeouts = 0 after a timed-out query")
	}
}

func TestEntityEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	req := httptest.NewRequest(http.MethodGet, "/v1/entity/Jerry%20Yang", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var ent entityResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ent); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if ent.Name != "Jerry Yang" {
		t.Errorf("entity = %+v, want Jerry Yang", ent)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/entity/Nobody", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("missing entity: status = %d, want 404", w.Code)
	}
	if e := decodeError(t, w); e.Error.Code != "unknown_entity" {
		t.Errorf("error code = %q, want unknown_entity", e.Error.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if body["status"] != "ok" {
		t.Errorf("status = %v, want ok", body["status"])
	}
}

// statz fetches and decodes /statz.
func statz(t *testing.T, s *Server) statzSnapshot {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/statz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/statz status = %d", w.Code)
	}
	var snap statzSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding /statz %q: %v", w.Body.String(), err)
	}
	return snap
}

func TestStatzCounters(t *testing.T) {
	s := newTestServer(t, Config{})
	const body = `{"tuple":["Jerry Yang","Yahoo!"]}`
	for i := 0; i < 3; i++ {
		if w := postQuery(t, s, body); w.Code != http.StatusOK {
			t.Fatalf("query %d: status = %d", i, w.Code)
		}
	}
	snap := statz(t, s)
	if snap.Requests != 3 || snap.Served != 3 {
		t.Errorf("requests/served = %d/%d, want 3/3", snap.Requests, snap.Served)
	}
	if snap.Cache.Hits != 2 || snap.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", snap.Cache.Hits, snap.Cache.Misses)
	}
	if snap.CacheServed != 2 {
		t.Errorf("cache_served = %d, want 2", snap.CacheServed)
	}
	// Only the one real search is in the latency ring: cache hits are
	// excluded so warm-cache traffic cannot collapse the percentiles.
	if snap.Latency.Samples != 1 {
		t.Errorf("latency samples = %d, want 1 (searches only)", snap.Latency.Samples)
	}
	if snap.QPS <= 0 {
		t.Errorf("qps = %v, want > 0", snap.QPS)
	}
	if snap.Engine.Entities == 0 || snap.Engine.Facts == 0 {
		t.Errorf("engine section empty: %+v", snap.Engine)
	}
	// The build section reports how the offline phase ran: this engine was
	// built in-process, not from a snapshot.
	if snap.Build.Snapshot || snap.Build.Mapped {
		t.Errorf("build section = %+v, want snapshot=false mapped=false", snap.Build)
	}
	if snap.Build.BuildMS < 0 {
		t.Errorf("build_ms = %v, want >= 0", snap.Build.BuildMS)
	}
}

func TestCacheHitAndOptionMiss(t *testing.T) {
	s := newTestServer(t, Config{})

	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if res := decodeQuery(t, w); res.Cached {
		t.Fatal("first query reported cached")
	}
	// Identical repeat — and an equivalent spelling with the defaults made
	// explicit — both hit the cache.
	w = postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if res := decodeQuery(t, w); !res.Cached {
		t.Fatal("identical repeat query missed the cache")
	}
	w = postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"],"k":10,"depth":2}`)
	if res := decodeQuery(t, w); !res.Cached {
		t.Fatal("default-spelled query missed the cache")
	}
	// Mutated options are a different query.
	w = postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"],"k":5}`)
	if res := decodeQuery(t, w); res.Cached {
		t.Fatal("k=5 query wrongly hit the k=10 cache entry")
	}
	// no_cache bypasses both lookup and fill.
	w = postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"],"no_cache":true}`)
	if res := decodeQuery(t, w); res.Cached {
		t.Fatal("no_cache query reported cached")
	}
}

func TestClientBudgetsAreCapped(t *testing.T) {
	s := newTestServer(t, Config{})
	// An absurd max_rows must not raise the engine's row budget: it is
	// clamped to the server cap (== the engine default), so the request is
	// the same query as the default one and hits its cache entry.
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("seed query: status = %d", w.Code)
	}
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"],"max_rows":2000000000}`)
	if w.Code != http.StatusOK {
		t.Fatalf("capped query: status = %d, body %s", w.Code, w.Body.String())
	}
	if res := decodeQuery(t, w); !res.Cached {
		t.Error("max_rows above the cap did not clamp to the default query's cache key")
	}
}

func TestHugeTimeoutMillisClamps(t *testing.T) {
	s := newTestServer(t, Config{})
	// 9.3e12 ms would overflow int64 nanoseconds if multiplied unclamped,
	// wrapping to a negative (instantly expired) deadline; clamped to
	// MaxTimeout it must simply succeed.
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"],"timeout_ms":9300000000000}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body.String())
	}
}

func TestTooManyTuplesRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	var sb strings.Builder
	sb.WriteString(`{"tuples":[`)
	for i := 0; i < maxClientTuples+1; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`["Jerry Yang","Yahoo!"]`)
	}
	sb.WriteString(`]}`)
	w := postQuery(t, s, sb.String())
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "bad_request" {
		t.Errorf("error code = %q, want bad_request", e.Error.Code)
	}
}

func TestOversizedTupleArityRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	var sb strings.Builder
	sb.WriteString(`{"tuple":[`)
	for i := 0; i <= maxClientArity; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`"Jerry Yang"`)
	}
	sb.WriteString(`]}`)
	w := postQuery(t, s, sb.String())
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body.String())
	}
}

func TestTimeoutsCountInLatency(t *testing.T) {
	s := newTestServer(t, Config{DefaultTimeout: time.Nanosecond})
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	if snap := statz(t, s); snap.Latency.Samples != 1 {
		t.Errorf("latency samples = %d, want 1 — timed-out queries must count toward percentiles", snap.Latency.Samples)
	}
}

func TestOversizedResultsNotCached(t *testing.T) {
	// A 1-byte entry bound rejects every real result: repeats must keep
	// missing the cache.
	s := newTestServer(t, Config{CacheMaxEntryBytes: 1})
	const body = `{"tuple":["Jerry Yang","Yahoo!"]}`
	for i := 0; i < 2; i++ {
		w := postQuery(t, s, body)
		if res := decodeQuery(t, w); res.Cached {
			t.Fatalf("query %d served from cache despite 1-byte entry bound", i)
		}
	}
	if snap := statz(t, s); snap.Cache.Entries != 0 {
		t.Errorf("cache entries = %d, want 0", snap.Cache.Entries)
	}
}

func TestUnknownRoute(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/nope", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
}
