package server

import (
	"sync/atomic"
	"time"

	"gqbe/internal/obs"
	"gqbe/internal/topk"
)

// serverMetrics aggregates the serving counters exposed on /statz and
// /metrics. All counters are atomics; the latency histograms are themselves
// concurrency-safe. The struct is engine-wide: one instance per Server,
// shared by every request.
type serverMetrics struct {
	start time.Time

	requests atomic.Uint64 // query requests received
	served   atomic.Uint64 // query requests answered 2xx
	errored  atomic.Uint64 // query requests failed (4xx/5xx), excluding shed, timed-out, and canceled ones
	rejected atomic.Uint64 // query requests shed by admission (429)
	timeouts atomic.Uint64 // query requests that hit their deadline (504); disjoint from errored
	canceled atomic.Uint64 // query requests aborted by the client (context.Canceled); disjoint from errored
	// requests == served + errored + rejected + timeouts + canceled (plus any still in flight).
	cacheServ atomic.Uint64 // query requests answered from the result cache
	// cacheSkippedFast counts successful searches not cached because they
	// finished under the CacheMinLatency admission floor.
	cacheSkippedFast atomic.Uint64
	coalesced        atomic.Uint64 // query requests answered (shared result or deterministic query error) by joining an identical in-flight search
	inFlight         atomic.Int64  // query requests currently being handled

	slowQueries atomic.Uint64 // requests whose total handling time met Config.SlowQuery

	// Degraded-service counters (the /statz "faults" section):
	recoveredPanics atomic.Uint64 // panics recovered into 500s at the query and explain handlers
	staleServed     atomic.Uint64 // degraded answers served from retained cache entries
	reloadsOK       atomic.Uint64 // hot reloads that swapped in a new engine generation
	reloadsRejected atomic.Uint64 // hot reloads rejected (loader failed); serving engine retained
	brownouts       atomic.Uint64 // searches executed under the brownout evaluation cap

	// searchStopped counts engine searches (cache hits and coalesced
	// answers excluded) by why they stopped, indexed like stopReasons.
	searchStopped [len(stopReasons)]atomic.Uint64

	// The three request-latency histograms, Prometheus-shaped (cumulative
	// fixed buckets) so /metrics can expose them directly and /statz can
	// derive its p50/p90/p99 from the same data:
	//
	//   searchLat — engine search time only (queue wait and response writing
	//               excluded; cache hits and coalesced answers excluded, or
	//               their microsecond times would collapse the percentiles as
	//               the cache warms — see execute);
	//   queueLat  — admission queue wait, every outcome included (a shed
	//               request's full MaxQueueWait is exactly the signal);
	//   totalLat  — full request handling time as the handler saw it.
	searchLat *obs.Histogram
	queueLat  *obs.Histogram
	totalLat  *obs.Histogram
}

// stopReasons is the fixed label set of gqbe_search_stopped_total, in
// exposition order: every topk.StopReason an engine search can report.
var stopReasons = [...]topk.StopReason{
	topk.StopProven,
	topk.StopExhausted,
	topk.StopMaxEvaluations,
	topk.StopRowBudget,
	topk.StopDeadline,
	topk.StopCanceled,
}

// noteStopped counts one engine search under its stop reason.
func (m *serverMetrics) noteStopped(reason string) {
	for i, r := range stopReasons {
		if string(r) == reason {
			m.searchStopped[i].Add(1)
			return
		}
	}
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		start:     time.Now(),
		searchLat: obs.NewHistogram(obs.DefaultLatencyBuckets),
		queueLat:  obs.NewHistogram(obs.DefaultLatencyBuckets),
		totalLat:  obs.NewHistogram(obs.DefaultLatencyBuckets),
	}
}

// statzCache is the cache section of a /statz snapshot.
type statzCache struct {
	Entries   int     `json:"entries"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	// SkippedFast counts results not admitted to the cache because their
	// search finished under the configured latency floor.
	SkippedFast uint64 `json:"skipped_fast"`
}

// statzLatency is the search-latency section of a /statz snapshot, in
// milliseconds. The percentiles are estimated from the fixed-bucket search
// histogram with the same linear interpolation Prometheus's
// histogram_quantile uses (they were exact sliding-window quantiles before
// the histogram migration; the JSON keys are unchanged), and Samples is the
// histogram's lifetime observation count.
type statzLatency struct {
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

// statzEngine describes the loaded knowledge graph.
type statzEngine struct {
	Entities   int `json:"entities"`
	Facts      int `json:"facts"`
	Predicates int `json:"predicates"`
}

// statzBuild describes how the engine's offline phase ran: a restart either
// paid for a full parse+build, a binary snapshot load onto the heap
// (snapshot true), or a zero-copy mapped snapshot open (mapped true, with
// the mapping size in mapped_bytes).
type statzBuild struct {
	BuildMS     float64 `json:"build_ms"`
	Snapshot    bool    `json:"snapshot"`
	Mapped      bool    `json:"mapped"`
	MappedBytes int64   `json:"mapped_bytes,omitempty"`
}

// statzReloads splits hot-reload attempts by outcome; a rejected attempt
// means the loader failed and the previous engine kept serving.
type statzReloads struct {
	OK       uint64 `json:"ok"`
	Rejected uint64 `json:"rejected"`
}

// statzFaults is the degraded-service section of a /statz snapshot: what the
// fault layer injected (process lifetime, surviving disable) and how the
// server absorbed failures.
type statzFaults struct {
	Injected        uint64       `json:"injected"`
	RecoveredPanics uint64       `json:"recovered_panics"`
	StaleServed     uint64       `json:"stale_served"`
	Reloads         statzReloads `json:"reloads"`
	Brownouts       uint64       `json:"brownouts"`
}

// statzShard is the fleet identity section of a /statz snapshot, present
// only on daemons serving one shard of a fleet: this engine keeps answers
// for shard `index` of `count` (topk.OwnerShard assignment).
type statzShard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// statzSnapshot is the full /statz response body.
type statzSnapshot struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Requests      uint64       `json:"requests"`
	Served        uint64       `json:"served"`
	Errors        uint64       `json:"errors"`
	Rejected      uint64       `json:"rejected"`
	Timeouts      uint64       `json:"timeouts"`
	Canceled      uint64       `json:"canceled"`
	CacheServed   uint64       `json:"cache_served"`
	Coalesced     uint64       `json:"coalesced"`
	SlowQueries   uint64       `json:"slow_queries"`
	InFlight      int64        `json:"in_flight"`
	BusyWorkers   int          `json:"busy_workers"`
	QPS           float64      `json:"qps"`
	Latency       statzLatency `json:"latency"`
	Cache         statzCache   `json:"cache"`
	Engine        statzEngine  `json:"engine"`
	Build         statzBuild   `json:"build"`
	// Shard is the daemon's fleet shard identity; absent on unsharded
	// daemons.
	Shard  *statzShard `json:"shard,omitempty"`
	Faults statzFaults `json:"faults"`
	// Generation is the serving engine's hot-reload generation (1 at boot,
	// +1 per successful reload).
	Generation uint64 `json:"engine_generation"`
}

// snapshot assembles a consistent-enough view of the serving metrics: each
// counter is read atomically; cross-counter skew of a few requests is fine
// for a stats endpoint.
func (m *serverMetrics) snapshot(cache *resultCache, adm *admission, eng statzEngine, build statzBuild, faultsInjected, generation uint64) statzSnapshot {
	uptime := time.Since(m.start).Seconds()
	lat := m.searchLat.Snapshot()
	hits, misses, evictions := cache.counters()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	qps := 0.0
	if uptime > 0 {
		qps = float64(m.requests.Load()) / uptime
	}
	secToMS := func(sec float64) float64 { return sec * 1e3 }
	return statzSnapshot{
		UptimeSeconds: uptime,
		Requests:      m.requests.Load(),
		Served:        m.served.Load(),
		Errors:        m.errored.Load(),
		Rejected:      m.rejected.Load(),
		Timeouts:      m.timeouts.Load(),
		Canceled:      m.canceled.Load(),
		CacheServed:   m.cacheServ.Load(),
		Coalesced:     m.coalesced.Load(),
		SlowQueries:   m.slowQueries.Load(),
		InFlight:      m.inFlight.Load(),
		BusyWorkers:   adm.busy(),
		QPS:           qps,
		Latency: statzLatency{
			P50:     secToMS(lat.Quantile(0.50)),
			P90:     secToMS(lat.Quantile(0.90)),
			P99:     secToMS(lat.Quantile(0.99)),
			Samples: int(lat.Count),
		},
		Cache: statzCache{
			Entries:     cache.len(),
			Hits:        hits,
			Misses:      misses,
			Evictions:   evictions,
			HitRate:     hitRate,
			SkippedFast: m.cacheSkippedFast.Load(),
		},
		Engine: eng,
		Build:  build,
		Faults: statzFaults{
			Injected:        faultsInjected,
			RecoveredPanics: m.recoveredPanics.Load(),
			StaleServed:     m.staleServed.Load(),
			Reloads: statzReloads{
				OK:       m.reloadsOK.Load(),
				Rejected: m.reloadsRejected.Load(),
			},
			Brownouts: m.brownouts.Load(),
		},
		Generation: generation,
	}
}
