package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gqbe/internal/server"
)

// The chaos suite: every failure a shard can inflict on the fleet — error
// statuses, hangs past the budget, handler panics, connections severed
// mid-query, whole shards down — must degrade deterministically into a 200
// with partial=true and the missing shard named, never a 500, and the /statz
// accounting invariant must hold through all of it.

// queryPathsOnly applies mw to the query endpoints and passes everything
// else (healthz, statz) through, so fleet probes keep working while queries
// fail.
func queryPathsOnly(mw func(h http.Handler) http.Handler) func(h http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		wrapped := mw(h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/query") {
				wrapped.ServeHTTP(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// onShard applies mw only to shard `victim`, leaving the rest healthy.
func onShard(victim int, mw func(h http.Handler) http.Handler) func(i int, h http.Handler) http.Handler {
	return func(i int, h http.Handler) http.Handler {
		if i != victim {
			return h
		}
		return queryPathsOnly(mw)(h)
	}
}

// Fault middlewares.

func faultStatus(status int, code string) func(h http.Handler) http.Handler {
	return func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			server.WriteError(w, status, code, "injected fault")
		})
	}
}

func faultHang(d time.Duration) func(h http.Handler) http.Handler {
	return func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
			}
			server.WriteError(w, http.StatusGatewayTimeout, "timeout", "woke up too late")
		})
	}
}

func faultPanic() func(h http.Handler) http.Handler {
	return func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			panic("chaos: injected shard panic")
		})
	}
}

// faultSever kills the TCP connection mid-query: the router has sent the
// request and is reading the response when the shard dies under it.
func faultSever() func(h http.Handler) http.Handler {
	return func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
		})
	}
}

// chaosRouterConfig keeps the failure path fast: small deadlines so a hung
// shard exhausts its budget in well under a second.
func chaosRouterConfig() Config {
	return Config{
		DefaultTimeout: 50 * time.Millisecond,
		MaxTimeout:     100 * time.Millisecond,
		MaxQueueWait:   10 * time.Millisecond,
	}
}

// expectedWithout computes the ranking the router must return when `victim`
// is missing: the healthy shards' answers posted directly, merged under the
// same total order (score desc, tie asc) and cut at k.
func expectedWithout(t *testing.T, f *testFleet, body string, k, victim int) []server.AnswerJSON {
	t.Helper()
	var all []server.AnswerJSON
	for i, srv := range f.shards {
		if i == victim {
			continue
		}
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("direct shard %d query: %v", i, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct shard %d query status %d: %s", i, resp.StatusCode, b)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(b, &qr); err != nil {
			t.Fatalf("decoding shard %d response: %v", i, err)
		}
		all = append(all, qr.Answers...)
	}
	sortAnswers(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestChaosPartialModes drives every per-shard failure mode through a
// 4-shard fleet and demands the identical degraded contract from each: a
// 200, partial=true, exactly the victim in missing_shards, and the ranking
// the healthy shards merge to.
func TestChaosPartialModes(t *testing.T) {
	eng := fig1Engine(t)
	const body = `{"tuple":["Jerry Yang","Yahoo!"],"k":10,"no_cache":true}`
	const victim = 2
	modes := []struct {
		name string
		mw   func(h http.Handler) http.Handler
	}{
		{"http 500", faultStatus(http.StatusInternalServerError, "internal")},
		{"http 503", faultStatus(http.StatusServiceUnavailable, "unavailable")},
		{"shed 429", faultStatus(http.StatusTooManyRequests, "overloaded")},
		// Comfortably past the ~560ms shard-call budget, but short enough
		// that the test server's drain-on-Close doesn't stall the suite.
		{"hang past budget", faultHang(1200 * time.Millisecond)},
		{"handler panic", faultPanic()},
		{"connection severed", faultSever()},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			f := newFleet(t, eng, 4, 0, onShard(victim, mode.mw), chaosRouterConfig())
			w := post(t, f.rt, "/v1/query", body)
			if w.Code != http.StatusOK {
				t.Fatalf("degraded query status = %d, want 200; body %s", w.Code, w.Body.String())
			}
			res := decodeQueryResp(t, w)
			if !res.Partial {
				t.Fatal("degraded response not marked partial")
			}
			if want := []string{shardName(victim)}; !reflect.DeepEqual(res.Missing, want) {
				t.Fatalf("missing_shards = %v, want %v", res.Missing, want)
			}
			want := expectedWithout(t, f, body, 10, victim)
			if !reflect.DeepEqual(res.Answers, want) {
				t.Fatalf("partial ranking diverged from healthy-shard merge:\ngot  %+v\nwant %+v", res.Answers, want)
			}
		})
	}
}

// TestChaosPartialNeverCached pins the cache rule: a partial merge must not
// be served to a later query that could get the full ranking.
func TestChaosPartialNeverCached(t *testing.T) {
	eng := fig1Engine(t)
	var down atomic.Bool
	down.Store(true)
	toggled := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				server.WriteError(w, http.StatusInternalServerError, "internal", "injected fault")
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newFleet(t, eng, 2, 0, onShard(1, toggled), chaosRouterConfig())
	body := `{"tuple":["Jerry Yang","Yahoo!"],"k":10}`

	first := decodeQueryResp(t, post(t, f.rt, "/v1/query", body))
	if !first.Partial {
		t.Fatal("setup: first query should be partial")
	}
	down.Store(false)
	second := decodeQueryResp(t, post(t, f.rt, "/v1/query", body))
	if second.Cached {
		t.Fatal("partial merge was cached and served to a later query")
	}
	if second.Partial {
		t.Fatalf("recovered fleet still partial: %+v", second)
	}
}

// TestChaosBatchPartial runs a batch through a fleet with one dead shard:
// every item must come back 200-with-result, partial, naming the dead shard.
func TestChaosBatchPartial(t *testing.T) {
	eng := fig1Engine(t)
	const victim = 0
	f := newFleet(t, eng, 3, 0, onShard(victim, faultStatus(http.StatusInternalServerError, "internal")), chaosRouterConfig())
	body := `{"queries":[
		{"tuple":["Jerry Yang","Yahoo!"],"k":10},
		{"tuple":["Sergey Brin","Google"],"k":5}
	]}`
	w := post(t, f.rt, "/v1/query:batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", w.Code, w.Body.String())
	}
	var br server.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatalf("decoding batch: %v", err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(br.Results))
	}
	for i, item := range br.Results {
		if item.Result == nil {
			t.Fatalf("item %d errored under a single dead shard: %+v", i, item.Error)
		}
		if !item.Result.Partial {
			t.Errorf("item %d not marked partial", i)
		}
		if want := []string{shardName(victim)}; !reflect.DeepEqual(item.Result.Missing, want) {
			t.Errorf("item %d missing_shards = %v, want %v", i, item.Result.Missing, want)
		}
	}
}

// TestChaosExplainPartial pins explain's degraded contract: merged 200 with
// partial=true, the dead shard named in the error detail, and the trace
// carrying only the shards that answered.
func TestChaosExplainPartial(t *testing.T) {
	eng := fig1Engine(t)
	const victim = 1
	f := newFleet(t, eng, 3, 0, onShard(victim, faultStatus(http.StatusInternalServerError, "internal")), chaosRouterConfig())
	w := post(t, f.rt, "/v1/query:explain", `{"tuple":["Jerry Yang","Yahoo!"],"k":10}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain status = %d, body %s", w.Code, w.Body.String())
	}
	var ej server.ExplainJSON
	if err := json.Unmarshal(w.Body.Bytes(), &ej); err != nil {
		t.Fatalf("decoding explain: %v", err)
	}
	if !ej.Partial {
		t.Fatal("degraded explain not marked partial")
	}
	if ej.Error == nil || ej.Error.Code != "shard_unavailable" || !strings.Contains(ej.Error.Message, shardName(victim)) {
		t.Fatalf("explain error detail = %+v, want shard_unavailable naming %s", ej.Error, shardName(victim))
	}
	if len(ej.Trace.Children) != 2 {
		t.Fatalf("trace children = %d, want the 2 responding shards", len(ej.Trace.Children))
	}
	for _, c := range ej.Trace.Children {
		if c.Attrs["shard"] == int64(victim) {
			t.Errorf("dead shard %d appears in the merged trace", victim)
		}
	}
}

// TestChaosAllShardsFailed pins the error classification when NO shard
// answers: all-shed means 429 with Retry-After, all-hung means 504, anything
// else 503 — deterministically, from the lowest-index shard's failure.
func TestChaosAllShardsFailed(t *testing.T) {
	eng := fig1Engine(t)
	const body = `{"tuple":["Jerry Yang","Yahoo!"],"k":10,"no_cache":true}`
	cases := []struct {
		name       string
		mw         func(h http.Handler) http.Handler
		wantStatus int
		wantCode   string
	}{
		{"all 500", faultStatus(http.StatusInternalServerError, "internal"), http.StatusServiceUnavailable, "shard_unavailable"},
		{"all shed", faultStatus(http.StatusTooManyRequests, "overloaded"), http.StatusTooManyRequests, "overloaded"},
		{"all hung", faultHang(1200 * time.Millisecond), http.StatusGatewayTimeout, "timeout"},
		{"all severed", faultSever(), http.StatusServiceUnavailable, "shard_unavailable"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, eng, 2, 0, func(i int, h http.Handler) http.Handler {
				return queryPathsOnly(tc.mw)(h)
			}, chaosRouterConfig())
			w := post(t, f.rt, "/v1/query", body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			var eb server.ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("decoding error: %v", err)
			}
			if eb.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", eb.Error.Code, tc.wantCode)
			}
			if tc.wantStatus == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		})
	}
}

// TestChaosStaleServe pins fleet-level degraded serving: with StaleServe on,
// a query the whole fleet fails is answered from the router's retained
// merged result — labeled stale, with an Age header — and with StaleServe
// off the same situation is the classified error.
func TestChaosStaleServe(t *testing.T) {
	eng := fig1Engine(t)
	body := `{"tuple":["Jerry Yang","Yahoo!"],"k":10}`
	for _, enabled := range []bool{true, false} {
		enabled := enabled
		t.Run(fmt.Sprintf("stale_serve=%v", enabled), func(t *testing.T) {
			var down atomic.Bool
			toggled := func(i int, h http.Handler) http.Handler {
				return queryPathsOnly(func(h http.Handler) http.Handler {
					return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if down.Load() {
							server.WriteError(w, http.StatusServiceUnavailable, "unavailable", "injected outage")
							return
						}
						h.ServeHTTP(w, r)
					})
				})(h)
			}
			cfg := chaosRouterConfig()
			cfg.StaleServe = enabled
			cfg.StaleTTL = 10 * time.Millisecond
			f := newFleet(t, eng, 2, 0, toggled, cfg)

			warm := decodeQueryResp(t, post(t, f.rt, "/v1/query", body))
			if warm.Partial || warm.Stale {
				t.Fatalf("setup: warm query degraded: %+v", warm)
			}
			// Let the entry age past the soft TTL so the next lookup re-scatters
			// into the outage instead of hitting the fresh cache.
			time.Sleep(20 * time.Millisecond)
			down.Store(true)

			w := post(t, f.rt, "/v1/query", body)
			if !enabled {
				if w.Code != http.StatusServiceUnavailable {
					t.Fatalf("outage without stale-serve: status = %d, want 503; body %s", w.Code, w.Body.String())
				}
				return
			}
			if w.Code != http.StatusOK {
				t.Fatalf("stale-serve status = %d, body %s", w.Code, w.Body.String())
			}
			res := decodeQueryResp(t, w)
			if !res.Stale {
				t.Fatal("outage answer not labeled stale")
			}
			if w.Header().Get("Age") == "" {
				t.Error("stale answer without an Age header")
			}
			res.Stale = false
			zeroTimings(&res)
			zeroTimings(&warm)
			if !reflect.DeepEqual(res, warm) {
				t.Fatalf("stale answer diverged from the retained result:\nstale %+v\nwarm  %+v", res, warm)
			}
		})
	}
}

// TestChaosBrownoutOR pins brownout propagation: one shard answering under
// brownout is enough to label the merged response browned_out.
func TestChaosBrownoutOR(t *testing.T) {
	eng := fig1Engine(t)
	// Rewrite shard 1's responses to carry the brownout label, the way a
	// genuinely browned-out daemon would (per-shard fault injection must live
	// in middleware: the fault registry is process-global).
	relabel := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code == http.StatusOK {
				var qr server.QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); err == nil {
					qr.BrownedOut = true
					server.WriteJSON(w, http.StatusOK, &qr)
					return
				}
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		})
	}
	f := newFleet(t, eng, 3, 0, onShard(1, relabel), chaosRouterConfig())
	res := decodeQueryResp(t, post(t, f.rt, "/v1/query", `{"tuple":["Jerry Yang","Yahoo!"],"k":10}`))
	if !res.BrownedOut {
		t.Fatal("merged response lost one shard's browned_out label")
	}
	if res.Partial {
		t.Fatal("a browned-out shard is degraded service, not a missing shard")
	}
}

// TestChaosHealthz pins the fleet probe's three states.
func TestChaosHealthz(t *testing.T) {
	eng := fig1Engine(t)
	var downAll, downOne atomic.Bool
	mw := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" && (downAll.Load() || (downOne.Load() && i == 0)) {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newFleet(t, eng, 2, 0, mw, chaosRouterConfig())
	getHealth := func() (int, string) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		w := httptest.NewRecorder()
		f.rt.ServeHTTP(w, req)
		var hj struct {
			Status string `json:"status"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &hj)
		return w.Code, hj.Status
	}
	if code, status := getHealth(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthy fleet: %d/%q, want 200/ok", code, status)
	}
	downOne.Store(true)
	if code, status := getHealth(); code != http.StatusOK || status != "degraded" {
		t.Fatalf("one shard down: %d/%q, want 200/degraded", code, status)
	}
	downAll.Store(true)
	if code, status := getHealth(); code != http.StatusServiceUnavailable || status != "unavailable" {
		t.Fatalf("fleet down: %d/%q, want 503/unavailable", code, status)
	}
}

// TestChaosStatzAccounting barrages a fleet with every outcome class and
// then demands the daemon's own accounting invariant from the router:
// requests == served + errors + rejected + timeouts + canceled, nothing in
// flight, and the outcome counters landing where the barrage put them.
func TestChaosStatzAccounting(t *testing.T) {
	eng := fig1Engine(t)
	var down atomic.Bool
	var mode atomic.Int32 // 0 healthy, 1 all-500, 2 all-429
	toggled := func(i int, h http.Handler) http.Handler {
		return queryPathsOnly(func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if down.Load() {
					switch mode.Load() {
					case 2:
						server.WriteError(w, http.StatusTooManyRequests, "overloaded", "injected shed")
					default:
						server.WriteError(w, http.StatusInternalServerError, "internal", "injected fault")
					}
					return
				}
				h.ServeHTTP(w, r)
			})
		})(h)
	}
	f := newFleet(t, eng, 2, 0, toggled, chaosRouterConfig())

	const ok = `{"tuple":["Jerry Yang","Yahoo!"],"k":10,"no_cache":true}`
	// served: healthy queries (one also exercises a deterministic 404, which
	// must land in errors, and a malformed body, likewise).
	for i := 0; i < 3; i++ {
		if w := post(t, f.rt, "/v1/query", ok); w.Code != http.StatusOK {
			t.Fatalf("healthy query %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if w := post(t, f.rt, "/v1/query", `{"tuple":["Nobody Anybody","Yahoo!"]}`); w.Code != http.StatusNotFound {
		t.Fatalf("404 probe got %d", w.Code)
	}
	if w := post(t, f.rt, "/v1/query", `{not json`); w.Code != http.StatusBadRequest {
		t.Fatalf("400 probe got %d", w.Code)
	}
	// errors: full outage.
	down.Store(true)
	mode.Store(1)
	if w := post(t, f.rt, "/v1/query", ok); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("outage probe got %d", w.Code)
	}
	// rejected: every shard sheds.
	mode.Store(2)
	if w := post(t, f.rt, "/v1/query", ok); w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed probe got %d", w.Code)
	}
	down.Store(false)
	// batch: three items, all healthy (each item lands in served).
	if w := post(t, f.rt, "/v1/query:batch",
		`{"queries":[{"tuple":["Jerry Yang","Yahoo!"],"k":3},{"tuple":["Sergey Brin","Google"],"k":3},{"tuple":["Nobody Anybody"],"k":3}]}`); w.Code != http.StatusOK {
		t.Fatalf("batch probe got %d: %s", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/statz", nil)
	w := httptest.NewRecorder()
	f.rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("statz status = %d", w.Code)
	}
	var sz statzJSON
	if err := json.Unmarshal(w.Body.Bytes(), &sz); err != nil {
		t.Fatalf("decoding statz: %v", err)
	}
	if sz.InFlight != 0 {
		t.Errorf("in_flight = %d, want 0", sz.InFlight)
	}
	if got := sz.Served + sz.Errors + sz.Rejected + sz.Timeouts + sz.Canceled; got != sz.Requests {
		t.Errorf("accounting invariant broken: served %d + errors %d + rejected %d + timeouts %d + canceled %d = %d, requests %d",
			sz.Served, sz.Errors, sz.Rejected, sz.Timeouts, sz.Canceled, got, sz.Requests)
	}
	// The barrage's exact ledger: 3 healthy + 2 healthy batch items = 5
	// served; 404 + 400 + outage + bad batch item = 4 errors; 1 rejected.
	if sz.Requests != 10 {
		t.Errorf("requests = %d, want 10 (5 queries + 2 probes + 3 batch items)", sz.Requests)
	}
	if sz.Served != 5 {
		t.Errorf("served = %d, want 5", sz.Served)
	}
	if sz.Errors != 4 {
		t.Errorf("errors = %d, want 4", sz.Errors)
	}
	if sz.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", sz.Rejected)
	}
	if sz.BatchItems != 3 || sz.BatchRequests != 1 {
		t.Errorf("batch accounting = %d items / %d requests, want 3/1", sz.BatchItems, sz.BatchRequests)
	}
	if sz.ShardErrors == 0 {
		t.Error("shard_errors = 0 after an injected outage")
	}
	if len(sz.Shards) != 2 {
		t.Fatalf("statz shards = %d, want 2", len(sz.Shards))
	}
}
