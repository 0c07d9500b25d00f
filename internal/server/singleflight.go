package server

import (
	"sync"
	"time"

	"gqbe"
)

// flight is one in-progress computation of a cache key. The leader fills res
// and err, then closes done; followers may read res/err only after done is
// closed (the close is the publication barrier).
type flight struct {
	done chan struct{}
	// searchStarted is when the leader's engine run actually began — after
	// admission, so queue wait is excluded; zero if the leader died before
	// being admitted. Written by the leader before done is closed and read
	// by followers only after, so the close is its publication barrier too.
	// Followers use it to judge whether retrying a timed-out leader is
	// worthwhile.
	searchStarted time.Time
	res           *gqbe.Result
	err           error
	// brownedOut records that the leader computed res under the brownout
	// evaluation cap. Written before done closes, read by followers after:
	// they must label their responses degraded too — a coalesced answer is
	// the same partial answer.
	brownedOut bool
	// waiters counts followers that joined this flight, guarded by the
	// owning group's mu. Test instrumentation: lets a test block the leader
	// until every follower has provably joined.
	waiters int
}

// flightGroup coalesces concurrent identical cache misses (singleflight).
// The result cache only helps after the first result lands; without this
// layer, N simultaneous misses on one key would each take a worker slot and
// redundantly run the same MQG discovery + lattice search. Instead, the
// first request for a key becomes the flight's leader and computes under its
// own admission slot; every later request for the key while the flight is
// live becomes a follower and waits on the shared outcome without consuming
// a slot. Followers bound their wait with their own deadlines, and a flight
// whose leader died of its *own* context (client abort, shorter deadline) is
// retried by its followers rather than shared — that failure is a property
// of the leader's request, not of the query.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns key's live flight and whether the caller is its leader. The
// first caller for a key creates the flight and must eventually call finish;
// later callers get the same flight and leader=false.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		f.waiters++
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// searchElapsed returns how long the flight's search has been running (0 if
// it never reached the engine). Call only after done is closed.
func (f *flight) searchElapsed() time.Duration {
	if f.searchStarted.IsZero() {
		return 0
	}
	return time.Since(f.searchStarted)
}

// finish publishes the leader's outcome to f's followers and retires the
// flight, so the next request for key starts fresh. The map delete happens
// before the close: once followers are released, no new request may attach
// to the completed flight.
func (g *flightGroup) finish(key string, f *flight, res *gqbe.Result, err error) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// followerCount returns how many followers have joined key's live flight
// (0 when no flight is active). Test instrumentation only.
func (g *flightGroup) followerCount(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f.waiters
	}
	return 0
}

// active reports whether a flight for key is currently live. Test
// instrumentation only.
func (g *flightGroup) active(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.m[key]
	return ok
}
