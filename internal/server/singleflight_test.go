package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gqbe"
)

// founderKey computes the cache key the server derives for the standard
// founder query (at boot generation 1), so tests can observe its flight
// directly.
func founderKey(t *testing.T) string {
	t.Helper()
	q := queryRequest{Tuple: []string{"Jerry Yang", "Yahoo!"}}
	tuples, opts, err := q.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return keyFor(&engineGen{gen: 1}, tuples, opts)
}

// waitUntil polls cond every millisecond until it holds or the deadline
// passes.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", timeout, msg)
}

// TestSingleflightCoalescesConcurrentMisses proves the tentpole property
// under the race detector: N concurrent identical cache misses run exactly
// one engine search; the other N-1 requests join the leader's flight,
// consume no worker slot, and are answered from the shared result.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8})
	const followers = 7
	key := founderKey(t)

	var execs atomic.Int32
	gate := make(chan struct{})
	s.execHook = func() {
		execs.Add(1)
		<-gate // hold the leader mid-search until every follower has joined
	}

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, followers+1)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
		}(i)
	}
	waitUntil(t, 5*time.Second,
		func() bool { return s.flights.followerCount(key) == followers },
		"followers never all joined the leader's flight")
	if got := s.adm.busy(); got != 1 {
		t.Errorf("busy workers with %d coalesced requests = %d, want 1 (followers must not take slots)", followers, got)
	}
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("engine executions = %d, want exactly 1 for %d identical concurrent misses", got, followers+1)
	}
	nCoalesced := 0
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body %s", i, w.Code, w.Body.String())
		}
		res := decodeQuery(t, w)
		if len(res.Answers) == 0 {
			t.Errorf("request %d: no answers", i)
		}
		if res.Coalesced {
			nCoalesced++
		}
	}
	if nCoalesced != followers {
		t.Errorf("coalesced responses = %d, want %d", nCoalesced, followers)
	}
	snap := statz(t, s)
	if snap.Coalesced != followers {
		t.Errorf("statz coalesced = %d, want %d", snap.Coalesced, followers)
	}
	if snap.Served != followers+1 {
		t.Errorf("served = %d, want %d", snap.Served, followers+1)
	}
	// The leader cached its result: one more request is a plain cache hit.
	if res := decodeQuery(t, postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)); !res.Cached {
		t.Error("post-flight repeat missed the cache")
	}
}

// TestSingleflightFollowerHonorsDeadline: a follower whose own deadline
// expires while the leader is still computing gets a timeout, and the leader
// is unaffected and completes.
func TestSingleflightFollowerHonorsDeadline(t *testing.T) {
	// A small MaxQueueWait keeps the follower's total budget (queue wait +
	// timeout) tight, so the test stays fast.
	s := newTestServer(t, Config{MaxConcurrent: 2, MaxQueueWait: 5 * time.Millisecond})
	key := founderKey(t)

	gate := make(chan struct{})
	s.execHook = func() { <-gate }

	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`) }()
	waitUntil(t, 5*time.Second, func() bool { return s.flights.active(key) },
		"leader flight never started")

	// Identical query, 30ms budget: it must join the flight (not start a
	// search) and then fail with its own deadline.
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"],"timeout_ms":30}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("follower status = %d, want 504; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "timeout" {
		t.Errorf("follower error code = %q, want timeout", e.Error.Code)
	}

	close(gate)
	lw := <-leaderDone
	if lw.Code != http.StatusOK {
		t.Fatalf("leader status = %d, want 200; body %s", lw.Code, lw.Body.String())
	}
	snap := statz(t, s)
	if snap.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", snap.Timeouts)
	}
	if snap.Coalesced != 0 {
		t.Errorf("coalesced = %d, want 0 (the follower timed out, it was not answered)", snap.Coalesced)
	}
}

// TestSingleflightDoomedRetrySkipped: when a leader times out after running
// longer than a follower's whole remaining budget, the follower must fail
// with its own deadline immediately instead of re-running a search that
// provably cannot finish in time.
func TestSingleflightDoomedRetrySkipped(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2, MaxQueueWait: 5 * time.Millisecond})
	key := founderKey(t)
	q := queryRequest{Tuple: []string{"Jerry Yang", "Yahoo!"}}
	tuples, opts, err := q.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}

	var execs atomic.Int32
	s.execHook = func() {
		execs.Add(1)
		// The "search" runs 1s; the leader's 20ms request deadline expires
		// long before, so the engine fails with DeadlineExceeded on resume.
		time.Sleep(time.Second)
	}

	// The deadline rides on the leader's request context (the search timer
	// inside execute only starts after the hook returns).
	leaderCtx, cancelLeader := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.answer(leaderCtx, s.engine(), key, tuples, opts, 20*time.Millisecond, false, nil)
		leaderErr <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return execs.Load() == 1 },
		"leader never reached the engine")
	// Join ~300ms into the leader's 1s attempt with an 800ms budget: when
	// the leader dies at ~1s, the follower's ~100ms remainder is below the
	// flight's ~1s age, so a retry could never outlast what already failed.
	time.Sleep(300 * time.Millisecond)
	_, flags, ferr := s.answer(context.Background(), s.engine(), key, tuples, opts, 795*time.Millisecond, false, nil)

	if !errors.Is(ferr, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want context.DeadlineExceeded", ferr)
	}
	if flags.coalesced {
		t.Error("doomed follower reported coalesced")
	}
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want context.DeadlineExceeded", err)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("engine executions = %d, want 1 (the doomed retry must not run)", got)
	}
}

// TestQuerySurvivesEnginePanic: an engine panic on /v1/query becomes a 500
// "internal" response with the request landing in the errored counter, so
// the /statz accounting invariant survives panics on both endpoints.
func TestQuerySurvivesEnginePanic(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execHook = func() { panic("boom") }
	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Error.Code != "internal" {
		t.Errorf("error code = %q, want internal", e.Error.Code)
	}
	snap := statz(t, s)
	if snap.Requests != 1 || snap.Errors != 1 || snap.InFlight != 0 || snap.BusyWorkers != 0 {
		t.Errorf("requests/errors/in_flight/busy = %d/%d/%d/%d, want 1/1/0/0",
			snap.Requests, snap.Errors, snap.InFlight, snap.BusyWorkers)
	}
	// The flight, slot, and gate were all released: a healthy engine serves
	// the same key next.
	s.execHook = nil
	if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
		t.Fatalf("post-panic query: status = %d, body %s", w.Code, w.Body.String())
	}
}

// TestSingleflightLeaderCancelNotShared: a leader canceled by its own client
// must not poison its followers — the result is not cached, the leader's
// context error is not shared, and a follower retries the flight as the new
// leader and succeeds.
func TestSingleflightLeaderCancelNotShared(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 4})
	key := founderKey(t)
	q := queryRequest{Tuple: []string{"Jerry Yang", "Yahoo!"}}
	tuples, opts, err := q.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}

	var execs atomic.Int32
	gate := make(chan struct{})
	s.execHook = func() {
		execs.Add(1)
		<-gate // closed channel on the retry: the second run passes through
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.answer(leaderCtx, s.engine(), key, tuples, opts, 10*time.Second, false, nil)
		leaderErr <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return execs.Load() == 1 },
		"leader never reached the engine")

	type followerOut struct {
		res   *gqbe.Result
		flags answerFlags
		err   error
	}
	followerDone := make(chan followerOut, 1)
	go func() {
		res, flags, err := s.answer(context.Background(), s.engine(), key, tuples, opts, 10*time.Second, false, nil)
		followerDone <- followerOut{res, flags, err}
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.flights.followerCount(key) == 1 },
		"follower never joined the flight")

	cancelLeader()
	close(gate)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	out := <-followerDone
	if out.err != nil {
		t.Fatalf("follower err = %v, want nil (it must retry, not inherit the leader's cancellation)", out.err)
	}
	if out.flags.coalesced {
		t.Error("follower reported coalesced despite re-running the search as the new leader")
	}
	if len(out.res.Answers) == 0 {
		t.Error("follower got no answers")
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("engine executions = %d, want 2 (canceled leader + retrying follower)", got)
	}
	// Only the follower's successful run may be cached — never the canceled
	// leader's outcome.
	if _, ok := s.cache.get(key); !ok {
		t.Error("successful retry was not cached")
	}
}
