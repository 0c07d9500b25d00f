package router

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gqbe/internal/obs"
	"gqbe/internal/server"
)

// routerMetrics aggregates the fleet-level counters exposed on /statz and
// /metrics. The outcome counters keep the same accounting invariant the
// daemons do: requests == served + errored + rejected + timeouts + canceled
// (plus any still in flight).
type routerMetrics struct {
	start time.Time

	requests atomic.Uint64 // query requests received
	served   atomic.Uint64 // answered 2xx (full, partial, and stale merges alike)
	errored  atomic.Uint64 // failed 4xx/5xx, excluding shed/timed-out/canceled
	rejected atomic.Uint64 // 429 (every shard shed)
	timeouts atomic.Uint64 // 504 (deadline, shard or router budget)
	canceled atomic.Uint64 // client went away
	inFlight atomic.Int64

	partial       atomic.Uint64 // merges returned without every shard
	statsMismatch atomic.Uint64 // shard stats disagreed on trajectory facts
	fanout        atomic.Uint64 // shard calls issued (retries included)
	shardErrors   atomic.Uint64 // shard calls that failed (transport, 5xx, 429)

	recoveredPanics atomic.Uint64

	totalLat *obs.Histogram // full request handling time
	shardLat *obs.Histogram // per-shard round trips, all shards aggregated
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{
		start:    time.Now(),
		totalLat: obs.NewHistogram(obs.DefaultLatencyBuckets),
		shardLat: obs.NewHistogram(obs.DefaultLatencyBuckets),
	}
}

// statzShardJSON is one shard's section of the router's /statz: call and
// error counts plus round-trip percentiles, the per-shard detail that stays
// off /metrics (labeled histograms would multiply the scrape).
type statzShardJSON struct {
	Index    int     `json:"index"`
	URL      string  `json:"url"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
	Samples  int     `json:"samples"`
}

// statzJSON is the router's full /statz body.
type statzJSON struct {
	UptimeSeconds   float64          `json:"uptime_seconds"`
	Requests        uint64           `json:"requests"`
	Served          uint64           `json:"served"`
	Errors          uint64           `json:"errors"`
	Rejected        uint64           `json:"rejected"`
	Timeouts        uint64           `json:"timeouts"`
	Canceled        uint64           `json:"canceled"`
	InFlight        int64            `json:"in_flight"`
	Partial         uint64           `json:"partial"`
	StatsMismatches uint64           `json:"stats_mismatches"`
	Fanout          uint64           `json:"fanout"`
	ShardErrors     uint64           `json:"shard_errors"`
	RecoveredPanics uint64           `json:"recovered_panics"`
	Shards          []statzShardJSON `json:"shards"`
}

// handleStatz is GET /statz: the fleet serving counters plus a per-shard
// health/latency section.
func (rt *Router) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	m := rt.met
	secToMS := func(sec float64) float64 { return sec * 1e3 }
	snap := statzJSON{
		UptimeSeconds:   time.Since(m.start).Seconds(),
		Requests:        m.requests.Load(),
		Served:          m.served.Load(),
		Errors:          m.errored.Load(),
		Rejected:        m.rejected.Load(),
		Timeouts:        m.timeouts.Load(),
		Canceled:        m.canceled.Load(),
		InFlight:        m.inFlight.Load(),
		Partial:         m.partial.Load(),
		StatsMismatches: m.statsMismatch.Load(),
		Fanout:          m.fanout.Load(),
		ShardErrors:     m.shardErrors.Load(),
		RecoveredPanics: m.recoveredPanics.Load(),
	}
	for _, sh := range rt.shards {
		lat := sh.lat.Snapshot()
		snap.Shards = append(snap.Shards, statzShardJSON{
			Index:    sh.index,
			URL:      sh.base,
			Requests: sh.requests.Load(),
			Errors:   sh.errors.Load(),
			P50:      secToMS(lat.Quantile(0.50)),
			P99:      secToMS(lat.Quantile(0.99)),
			Samples:  int(lat.Count),
		})
	}
	server.WriteJSON(w, http.StatusOK, snap)
}

// handleMetrics is GET /metrics: the router's counters in the same
// hand-rolled Prometheus 0.0.4 exposition the daemons emit. Shard latency is
// ONE aggregate histogram — per-shard round-trip detail lives on /statz —
// and per-shard error counts ride as labeled counter samples.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	m := rt.met

	var b bytes.Buffer
	server.PromCounter(&b, "gqbe_router_requests_total",
		"Query requests received by the router.", m.requests.Load())

	server.PromHeader(&b, "gqbe_router_outcomes_total",
		"Query requests by final outcome; the series sum equals gqbe_router_requests_total minus requests still in flight.", "counter")
	for _, oc := range []struct {
		label string
		val   uint64
	}{
		{"served", m.served.Load()},
		{"errored", m.errored.Load()},
		{"rejected", m.rejected.Load()},
		{"timeout", m.timeouts.Load()},
		{"canceled", m.canceled.Load()},
	} {
		fmt.Fprintf(&b, "gqbe_router_outcomes_total{outcome=%q} %d\n", oc.label, oc.val)
	}

	server.PromCounter(&b, "gqbe_router_fanout_total",
		"Shard calls issued (retries included).", m.fanout.Load())
	server.PromHeader(&b, "gqbe_router_shard_errors_total",
		"Failed shard calls (transport errors, 5xx, shed) by shard.", "counter")
	for _, sh := range rt.shards {
		fmt.Fprintf(&b, "gqbe_router_shard_errors_total{shard=%q} %d\n",
			fmt.Sprint(sh.index), sh.errors.Load())
	}
	server.PromCounter(&b, "gqbe_router_partial_total",
		"Merged answers returned without every shard (degraded rankings served as 200s).", m.partial.Load())
	server.PromCounter(&b, "gqbe_router_stats_mismatch_total",
		"Merges where shard stats disagreed on trajectory facts (fleet not running one search).", m.statsMismatch.Load())
	server.PromCounter(&b, "gqbe_router_recovered_panics_total",
		"Panics recovered into error responses; the router survived each one.", m.recoveredPanics.Load())

	server.PromGauge(&b, "gqbe_router_shards",
		"Shards the router fans out to.", float64(len(rt.shards)))
	server.PromGauge(&b, "gqbe_router_in_flight_requests",
		"Requests currently being handled.", float64(m.inFlight.Load()))

	server.PromHistogram(&b, "gqbe_router_shard_latency_seconds",
		"Shard round-trip time per completed call, all shards aggregated (per-shard percentiles are on /statz).",
		m.shardLat.Snapshot())
	server.PromHistogram(&b, "gqbe_router_request_latency_seconds",
		"Total request handling time for /v1/query and /v1/query:explain.",
		m.totalLat.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

// healthShardJSON is one shard's probe result in the router's /healthz.
type healthShardJSON struct {
	Index int    `json:"index"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// healthJSON is the router's /healthz body: "ok" when every shard answers
// its own /healthz, "degraded" when some do, "unavailable" (503) when none
// do — an unreachable fleet cannot serve even partial rankings.
type healthJSON struct {
	Status string            `json:"status"`
	Shards []healthShardJSON `json:"shards"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	out := healthJSON{Shards: make([]healthShardJSON, len(rt.shards))}
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shardConn) {
			defer wg.Done()
			out.Shards[i] = healthShardJSON{Index: sh.index, OK: true}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.base+"/healthz", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = rt.cfg.Client.Do(req); err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("shard /healthz returned %d", resp.StatusCode)
					}
				}
			}
			if err != nil {
				out.Shards[i] = healthShardJSON{Index: sh.index, OK: false, Error: err.Error()}
			}
		}(i, sh)
	}
	wg.Wait()
	healthy := 0
	for _, s := range out.Shards {
		if s.OK {
			healthy++
		}
	}
	switch {
	case healthy == len(out.Shards):
		out.Status = "ok"
	case healthy > 0:
		out.Status = "degraded"
	default:
		out.Status = "unavailable"
		server.WriteJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}
