//go:build linux

package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// A handler that stalls shows the two rules of the open loop: latency runs
// from the instant a request was due, so the stall is charged to every
// request queued behind it; and lateness counts only the generator's own
// oversleep, not that backlog.
func TestOpenLoopChargesStallFromDueInstant(t *testing.T) {
	const stall = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		w.Write([]byte(`{"answers":[]}`))
	}))
	defer srv.Close()

	g := newGenerator(strings.TrimPrefix(srv.URL, "http://"), 1) // one connection: every request queues behind the previous one
	defer g.close()
	plan := make([]planned, 5)
	due := make([]time.Duration, len(plan))
	for i := range plan {
		plan[i] = g.frame(op{Entry: poolEntry{ID: "x", Tuples: [][]string{{"a"}}}, K: 1}, -1)
		due[i] = time.Duration(i) * time.Millisecond
	}
	recs, stats := g.open(plan, due)

	if stats.inflightMax != 1 {
		t.Errorf("inflight max %d on one connection", stats.inflightMax)
	}
	for i, rec := range recs {
		if rec.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.status)
		}
		// Request i leaves the server after (i+1) stalls and was due at i ms.
		want := time.Duration(i+1)*stall - due[i]
		if rec.lat < want || rec.lat > want+stall/2 {
			t.Errorf("request %d: latency %v, want about %v (from its due instant)", i, rec.lat, want)
		}
		// Sent the moment the connection was free: the wait for it is
		// latency, not lateness.
		if rec.late > 5*time.Millisecond {
			t.Errorf("request %d: reported %v late; backlog must not count as generator lateness", i, rec.late)
		}
	}
}

func TestClosedLoopStopsOnWholeCycles(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	g := newGenerator(strings.TrimPrefix(srv.URL, "http://"), 2)
	defer g.close()
	p := g.frame(op{Entry: poolEntry{ID: "x", Tuples: [][]string{{"a"}}}, K: 1}, -1)
	plan := make([]planned, 100000)
	for i := range plan {
		plan[i] = p
	}
	recs, _ := g.closed(plan, 30*time.Millisecond, 7, 2)
	if len(recs) == 0 || len(recs)%7 != 0 || len(recs) == len(plan) {
		t.Fatalf("closed loop sent %d requests, want a positive multiple of the cycle (7) short of the plan", len(recs))
	}
	for i, rec := range recs {
		if rec.status != http.StatusOK {
			t.Fatalf("request %d of a counted cycle was not sent (status %d)", i, rec.status)
		}
	}
}
