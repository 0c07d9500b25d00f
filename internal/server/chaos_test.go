package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gqbe"
	"gqbe/internal/fault"
)

// The chaos suite drives the serving stack through the fault registry: every
// degradation feature (hot reload, stale serving, panic isolation, brownout,
// shedding) is exercised by injected failures rather than hand-mocked ones,
// under the race detector. Fault state is process-global, so these tests
// never use t.Parallel (none of the server package's tests do).

// armFault enables a fault configuration for the duration of the test.
func armFault(t *testing.T, cfg fault.Config) {
	t.Helper()
	fault.Enable(cfg)
	t.Cleanup(fault.Disable)
}

// post sends a JSON POST to an arbitrary server path.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestChaosPanicIsolationSequential: an injected evaluation panic becomes a
// 500 with a request ID, the recovery is counted, and the very next request
// on the same key succeeds — the panic poisons nothing.
func TestChaosPanicIsolationSequential(t *testing.T) {
	s := newTestServer(t, Config{})
	armFault(t, fault.Config{fault.ExecEvalPanic: {Every: 1, Limit: 1}})

	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", w.Code, w.Body.String())
	}
	if got := w.Result().Header.Get("X-Request-ID"); got == "" {
		t.Error("500 response missing X-Request-ID")
	}
	if e := decodeError(t, w); e.Error.Code != "internal" {
		t.Errorf("error code = %q, want internal", e.Error.Code)
	}
	snap := statz(t, s)
	if snap.Faults.RecoveredPanics == 0 {
		t.Error("recovered_panics = 0 after an injected panic")
	}
	if snap.Requests != 1 || snap.Errors != 1 {
		t.Errorf("requests/errors = %d/%d, want 1/1", snap.Requests, snap.Errors)
	}
	// Limit:1 exhausted the injection; the same key must now serve cleanly.
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("post-panic query: status = %d, body %s", w.Code, w.Body.String())
	}
}

// TestChaosPanicIsolationParallel: the same property while other searches
// run beside the panicking one on the server's admission slots. One injected
// panic fails exactly one request, every concurrent request is served, and
// the recovery is counted once.
func TestChaosPanicIsolationParallel(t *testing.T) {
	const clients = 4
	s := newTestServer(t, Config{MaxConcurrent: clients})
	armFault(t, fault.Config{fault.ExecEvalPanic: {Every: 1, Limit: 1}})

	// Distinct k values give distinct cache keys, so no request coalesces
	// onto (and retries after) the panicking one.
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postQuery(t, s, fmt.Sprintf(`{"tuple":["Jerry Yang","Yahoo!"],"k":%d}`, i+1)).Code
		}(i)
	}
	wg.Wait()
	served, failed := 0, 0
	for _, code := range codes {
		switch code {
		case http.StatusOK:
			served++
		case http.StatusInternalServerError:
			failed++
		}
	}
	if served != clients-1 || failed != 1 {
		t.Errorf("statuses %v, want one 500 (the request that hit the panic) and 200s", codes)
	}
	snap := statz(t, s)
	if snap.Faults.RecoveredPanics != 1 || snap.Served != clients-1 || snap.Errors != 1 {
		t.Errorf("recovered_panics/served/errors = %d/%d/%d, want 1/%d/1",
			snap.Faults.RecoveredPanics, snap.Served, snap.Errors, clients-1)
	}
}

// TestChaosStorageTablePanicIsolated: a panic from the storage probe layer
// (which has no error channel at all) is likewise absorbed into a 500.
func TestChaosStorageTablePanicIsolated(t *testing.T) {
	s := newTestServer(t, Config{})
	armFault(t, fault.Config{fault.StorageTablePanic: {Every: 1, Limit: 1}})

	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", w.Code, w.Body.String())
	}
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("post-panic query: status = %d, body %s", w.Code, w.Body.String())
	}
}

// TestChaosStaleServe: with StaleServe on, a live-path failure (injected
// cache miss so the fresh lookup skips the entry, plus an injected engine
// error so recompute dies) falls back to the retained cache entry: 200 with
// "stale": true, an Age header, and the stale_served counter moving.
func TestChaosStaleServe(t *testing.T) {
	s := newTestServer(t, Config{StaleServe: true})

	// Warm the entry and prove it is a normal cache hit first.
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("warmup: status = %d, body %s", w.Code, w.Body.String())
	}
	if res := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)); !res.Cached {
		t.Fatal("warmup repeat was not a cache hit")
	}

	armFault(t, fault.Config{
		fault.CacheMiss:   {Every: 1},
		fault.ExecEvalErr: {Every: 1},
	})
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded query: status = %d, want 200 stale; body %s", w.Code, w.Body.String())
	}
	res := decodeQuery(t, w)
	if !res.Stale {
		t.Error("degraded answer not labeled stale")
	}
	if res.Cached || res.BrownedOut {
		t.Errorf("stale answer mislabeled: cached=%v browned_out=%v", res.Cached, res.BrownedOut)
	}
	if age := w.Result().Header.Get("Age"); age == "" {
		t.Error("stale response missing Age header")
	} else if _, err := strconv.Atoi(age); err != nil {
		t.Errorf("Age header %q is not an integer", age)
	}
	if len(res.Answers) == 0 {
		t.Error("stale answer carried no answers")
	}
	snap := statz(t, s)
	if snap.Faults.StaleServed != 1 {
		t.Errorf("stale_served = %d, want 1", snap.Faults.StaleServed)
	}
	// The masked failure still lands in served, keeping the accounting
	// invariant: a degraded 200 is a served request, not an errored one.
	if snap.Requests != snap.Served+snap.Errors+snap.Rejected+snap.Timeouts+snap.Canceled {
		t.Errorf("accounting broken: requests=%d served=%d errors=%d rejected=%d timeouts=%d canceled=%d",
			snap.Requests, snap.Served, snap.Errors, snap.Rejected, snap.Timeouts, snap.Canceled)
	}
}

// TestChaosStaleServeOffByDefault: the identical failure without the opt-in
// surfaces as the error it is — degraded serving never engages silently.
func TestChaosStaleServeOffByDefault(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("warmup: status = %d", w.Code)
	}
	armFault(t, fault.Config{
		fault.CacheMiss:   {Every: 1},
		fault.ExecEvalErr: {Every: 1},
	})
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (no silent stale-serving); body %s", w.Code, w.Body.String())
	}
	if snap := statz(t, s); snap.Faults.StaleServed != 0 {
		t.Errorf("stale_served = %d, want 0 with StaleServe off", snap.Faults.StaleServed)
	}
}

// TestChaosBrownout: a forced brownout serves a clamped-but-real answer
// labeled "browned_out", counts it, and refuses to cache it — the degraded
// result must not outlive the overload that produced it.
func TestChaosBrownout(t *testing.T) {
	s := newTestServer(t, Config{})
	armFault(t, fault.Config{fault.BrownoutForce: {Every: 1}})

	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("browned-out query: status = %d, body %s", w.Code, w.Body.String())
	}
	res := decodeQuery(t, w)
	if !res.BrownedOut {
		t.Error("brownout answer not labeled browned_out")
	}
	if len(res.Answers) == 0 {
		t.Error("brownout answer carried no answers (clamp must degrade, not empty)")
	}
	snap := statz(t, s)
	if snap.Faults.Brownouts != 1 {
		t.Errorf("brownouts = %d, want 1", snap.Faults.Brownouts)
	}

	// With the overload gone, the key recomputes at full quality: the
	// browned-out result was never cached.
	fault.Disable()
	second := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`))
	if second.Cached {
		t.Error("browned-out result was served from cache after the overload cleared")
	}
	if second.BrownedOut {
		t.Error("full-quality recompute still labeled browned_out")
	}
	third := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`))
	if !third.Cached {
		t.Error("full-quality result was not cached")
	}
}

// TestBrownoutClampKeepsKAndKPrime: brownout caps evaluations only. A
// request's K and k′ pass through unchanged (a k′ clamp saved 0.3 % of the
// golden's nodes against the cap's 36.2 %), the default cap of 512 replaces
// an unset or larger max_evaluations, and a request's own lower cap is kept.
func TestBrownoutClampKeepsKAndKPrime(t *testing.T) {
	cfg := Config{}.WithDefaults()
	for _, tc := range []struct {
		name         string
		in, wantEval int
	}{
		{"unset", 0, 512},
		{"larger", 5000, 512},
		{"lower", 3, 3},
	} {
		in := gqbe.Options{K: 50, KPrime: 100, MaxEvaluations: tc.in}
		got := brownoutClamp(in, cfg)
		if got.K != 50 || got.KPrime != 100 {
			t.Errorf("%s: K, KPrime = %d, %d; want 50, 100", tc.name, got.K, got.KPrime)
		}
		if got.MaxEvaluations != tc.wantEval {
			t.Errorf("%s: MaxEvaluations = %d, want %d", tc.name, got.MaxEvaluations, tc.wantEval)
		}
	}
}

// TestChaosAdmissionShed: injected admission saturation sheds with 429,
// "overloaded", and a parseable Retry-After hint.
func TestChaosAdmissionShed(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8})
	armFault(t, fault.Config{fault.AdmissionFull: {Every: 1}})

	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "overloaded" {
		t.Errorf("error code = %q, want overloaded", e.Error.Code)
	}
	ra := w.Result().Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", ra)
	}
	// Empty queue: base is 1, jitter spreads over [1, 2].
	if secs < 1 || secs > 2 {
		t.Errorf("Retry-After = %d, want within [1, 2] at zero queue depth", secs)
	}
	if snap := statz(t, s); snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.Rejected)
	}
}

// TestChaosRetryAfterJitterSpread pins the jitter regression: the hint stays
// inside [base, 2·base] for the live queue depth and actually spreads across
// that window instead of collapsing to a constant that would synchronize
// client retry waves.
func TestChaosRetryAfterJitterSpread(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8})

	// Zero queue: base 1, values in [1, 2], both values reachable.
	seen := map[int]int{}
	for i := 0; i < 64; i++ {
		v := s.retryAfterSeconds()
		if v < 1 || v > 2 {
			t.Fatalf("retryAfterSeconds() = %d at zero depth, want within [1, 2]", v)
		}
		seen[v]++
	}
	if len(seen) < 2 {
		t.Errorf("jitter collapsed at zero depth: only saw %v", seen)
	}

	// Standing queue of 32 over 8 workers: base 5, values in [5, 10].
	s.adm.waiting.Add(32)
	defer s.adm.waiting.Add(-32)
	seen = map[int]int{}
	for i := 0; i < 200; i++ {
		v := s.retryAfterSeconds()
		if v < 5 || v > 10 {
			t.Fatalf("retryAfterSeconds() = %d at depth 32, want within [5, 10]", v)
		}
		seen[v]++
	}
	if len(seen) < 3 {
		t.Errorf("jitter spread too narrow at depth 32: only saw %v", seen)
	}
}

// TestChaosHotReloadSwapsGeneration: a successful reload (HTTP trigger)
// bumps the generation, purges the old generation's cache entries, and the
// new engine answers immediately.
func TestChaosHotReloadSwapsGeneration(t *testing.T) {
	next := fig1Engine(t)
	s := newTestServer(t, Config{Reload: func() (*gqbe.Engine, error) { return next, nil }})

	// Warm a cache entry on generation 1.
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("warmup: status = %d", w.Code)
	}
	if res := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)); !res.Cached {
		t.Fatal("warmup repeat was not a cache hit")
	}

	w := post(t, s, "/admin/reload", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload: status = %d, body %s", w.Code, w.Body.String())
	}
	if s.engine().gen != 2 {
		t.Fatalf("generation = %d after reload, want 2", s.engine().gen)
	}
	// The old generation's entry is unreachable: the first repeat is a real
	// (uncached) computation on the new engine, the second a fresh hit.
	first := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`))
	if first.Cached {
		t.Error("post-reload query hit a stale-generation cache entry")
	}
	if len(first.Answers) == 0 {
		t.Error("new generation returned no answers")
	}
	if res := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)); !res.Cached {
		t.Error("new generation's result was not cached")
	}
	snap := statz(t, s)
	if snap.Faults.Reloads.OK != 1 || snap.Faults.Reloads.Rejected != 0 {
		t.Errorf("reloads ok/rejected = %d/%d, want 1/0", snap.Faults.Reloads.OK, snap.Faults.Reloads.Rejected)
	}
	if snap.Generation != 2 {
		t.Errorf("statz engine_generation = %d, want 2", snap.Generation)
	}
}

// TestChaosHotReloadRejectsBadCandidate: a failing loader (a corrupt
// snapshot in production) is a counted rejection; the serving engine and its
// warm cache survive untouched.
func TestChaosHotReloadRejectsBadCandidate(t *testing.T) {
	s := newTestServer(t, Config{Reload: func() (*gqbe.Engine, error) {
		return nil, fmt.Errorf("snapshot: checksum mismatch")
	}})
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("warmup: status = %d", w.Code)
	}

	w := post(t, s, "/admin/reload", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("reload: status = %d, want 500; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "reload_failed" {
		t.Errorf("error code = %q, want reload_failed", e.Error.Code)
	}
	if s.engine().gen != 1 {
		t.Fatalf("generation = %d after rejected reload, want 1 (old engine retained)", s.engine().gen)
	}
	// The warm entry is still the warm entry: nothing was purged.
	if res := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)); !res.Cached {
		t.Error("rejected reload lost the serving cache")
	}
	snap := statz(t, s)
	if snap.Faults.Reloads.Rejected != 1 || snap.Faults.Reloads.OK != 0 {
		t.Errorf("reloads ok/rejected = %d/%d, want 0/1", snap.Faults.Reloads.OK, snap.Faults.Reloads.Rejected)
	}
}

// TestChaosHotReloadUnsupported: without a configured loader the endpoint is
// explicit about it rather than pretending.
func TestChaosHotReloadUnsupported(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/admin/reload", "")
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "reload_unsupported" {
		t.Errorf("error code = %q, want reload_unsupported", e.Error.Code)
	}
}

// TestChaosHotReloadKeepsInFlightRequests: a request already executing on
// generation 1 completes successfully on its captured engine while the swap
// to generation 2 lands underneath it — reload drains nothing and drops
// nothing.
func TestChaosHotReloadKeepsInFlightRequests(t *testing.T) {
	next := fig1Engine(t)
	s := newTestServer(t, Config{Reload: func() (*gqbe.Engine, error) { return next, nil }})
	key := founderKey(t)

	gate := make(chan struct{})
	s.execHook = func() { <-gate }
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`) }()
	waitUntil(t, 5*time.Second, func() bool { return s.flights.active(key) },
		"in-flight query never reached the engine")

	gen, err := s.Reload()
	if err != nil {
		t.Fatalf("reload under in-flight load: %v", err)
	}
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	close(gate)
	w := <-done
	if w.Code != http.StatusOK {
		t.Fatalf("in-flight request after reload: status = %d, body %s", w.Code, w.Body.String())
	}
	if res := decodeQuery(t, w); len(res.Answers) == 0 {
		t.Error("in-flight request on the old generation returned no answers")
	}
}

// TestChaosExplainTruncation: past the node-eval and span caps the explain
// response is cut to a prefix and says so; the lattice summary still
// describes the full search.
func TestChaosExplainTruncation(t *testing.T) {
	s := newTestServer(t, Config{})
	s.explainNodeEvalCap = 1
	s.explainSpanCap = 2

	w := post(t, s, "/v1/query:explain", `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain: status = %d, body %s", w.Code, w.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding explain response: %v", err)
	}
	if !resp.Truncated {
		t.Error("capped explain response not labeled truncated")
	}
	if len(resp.NodeEvals) > 1 {
		t.Errorf("node_evals length = %d, want ≤ 1 under cap", len(resp.NodeEvals))
	}
	if n := countSpans(resp.Trace); n > 2 {
		t.Errorf("trace span count = %d, want ≤ 2 under cap", n)
	}
	if resp.Lattice.Evaluated <= len(resp.NodeEvals) {
		t.Errorf("lattice.evaluated = %d not beyond the %d kept node_evals — stats must describe the full search",
			resp.Lattice.Evaluated, len(resp.NodeEvals))
	}

	// At the default caps the same tiny query is complete and unlabeled.
	s.explainNodeEvalCap = defaultExplainMaxNodeEvals
	s.explainSpanCap = defaultExplainMaxSpans
	w = post(t, s, "/v1/query:explain", `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain: status = %d", w.Code)
	}
	resp = explainResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding explain response: %v", err)
	}
	if resp.Truncated {
		t.Error("uncapped explain response labeled truncated")
	}
	if len(resp.NodeEvals) != resp.Lattice.Evaluated {
		t.Errorf("node_evals length = %d != lattice.evaluated = %d without truncation",
			len(resp.NodeEvals), resp.Lattice.Evaluated)
	}
}

func countSpans(sp spanJSON) int {
	n := 1
	for _, c := range sp.Children {
		n += countSpans(c)
	}
	return n
}

// TestChaosStormUnderMixedFaults is the suite's load test: concurrent
// clients against probabilistic engine errors, evaluation panics, admission
// shedding, and cache misses, with hot reloads landing throughout. The
// process must survive (-race clean, no escaped panic), every response must
// be well-formed with a request ID, and the /statz accounting invariant must
// hold exactly when the storm drains.
func TestChaosStormUnderMixedFaults(t *testing.T) {
	next := fig1Engine(t)
	s := newTestServer(t, Config{
		MaxConcurrent: 4,
		StaleServe:    true,
		Reload:        func() (*gqbe.Engine, error) { return next, nil },
	})
	armFault(t, fault.Config{
		fault.ExecEvalErr:   {Prob: 0.20, Seed: 1},
		fault.ExecEvalPanic: {Prob: 0.05, Seed: 2},
		fault.AdmissionFull: {Prob: 0.10, Seed: 3},
		fault.CacheMiss:     {Prob: 0.30, Seed: 4},
		fault.BrownoutForce: {Prob: 0.10, Seed: 5},
	})

	// Reloads keep landing while the storm runs.
	stopReload := make(chan struct{})
	var reloadWG sync.WaitGroup
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		for {
			select {
			case <-stopReload:
				return
			default:
				if _, err := s.Reload(); err != nil {
					t.Errorf("reload during storm: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	bodies := []string{
		`{"tuple":["Jerry Yang","Yahoo!"]}`,
		`{"tuple":["Jerry Yang","Yahoo!"],"k":3}`,
		`{"tuple":["Jerry Yang","Yahoo!"],"no_cache":true}`,
	}
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusUnprocessableEntity: true, // injected engine error
		http.StatusTooManyRequests:     true, // injected shed
		http.StatusInternalServerError: true, // recovered injected panic
		http.StatusGatewayTimeout:      true,
		http.StatusServiceUnavailable:  true,
	}
	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				w := postQuery(t, s, bodies[(c+i)%len(bodies)])
				if !allowed[w.Code] {
					t.Errorf("storm response status = %d, body %s", w.Code, w.Body.String())
				}
				if w.Result().Header.Get("X-Request-ID") == "" {
					t.Errorf("storm response (status %d) missing X-Request-ID", w.Code)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopReload)
	reloadWG.Wait()
	fault.Disable()

	snap := statz(t, s)
	if snap.Requests != uint64(clients*perClient) {
		t.Errorf("requests = %d, want %d", snap.Requests, clients*perClient)
	}
	if got := snap.Served + snap.Errors + snap.Rejected + snap.Timeouts + snap.Canceled; got != snap.Requests {
		t.Errorf("accounting broken after storm: requests=%d but outcomes sum to %d "+
			"(served=%d errors=%d rejected=%d timeouts=%d canceled=%d)",
			snap.Requests, got, snap.Served, snap.Errors, snap.Rejected, snap.Timeouts, snap.Canceled)
	}
	if snap.InFlight != 0 || snap.BusyWorkers != 0 {
		t.Errorf("in_flight/busy = %d/%d after drain, want 0/0", snap.InFlight, snap.BusyWorkers)
	}
	if snap.Faults.Injected == 0 {
		t.Error("faults.injected = 0 after a probabilistic storm")
	}
	if snap.Generation < 2 {
		t.Errorf("generation = %d, want ≥ 2 after reloads during the storm", snap.Generation)
	}
	if snap.Faults.Reloads.OK == 0 {
		t.Error("no successful reloads recorded during the storm")
	}

	// The server is healthy after the chaos clears: a clean query serves.
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("post-storm query: status = %d, body %s", w.Code, w.Body.String())
	}
}
