package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"gqbe/internal/fault"
	"gqbe/internal/obs"
)

// handleMetrics is GET /metrics: the serving metrics in Prometheus text
// exposition format 0.0.4, hand-rolled over the same atomics /statz reads
// (no client library — the format is a line protocol). Counters use the
// _total suffix convention; the three latency histograms expose the
// fixed-bucket layout of obs.DefaultLatencyBuckets with cumulative `le`
// buckets, so histogram_quantile over them matches the p50/p90/p99 that
// /statz derives from the identical data.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	m := s.met
	eg := s.acquireEngine()
	defer eg.release()
	hits, misses, evictions := s.cache.counters()

	var b bytes.Buffer
	promCounter(&b, "gqbe_requests_total", "Query requests received.", m.requests.Load())

	promHeader(&b, "gqbe_query_outcomes_total",
		"Query requests by final outcome; the series sum equals gqbe_requests_total minus requests still in flight.", "counter")
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
		fmt.Fprintf(&b, "gqbe_query_outcomes_total{outcome=%q} %d\n", oc.label, oc.val)
	}

	promCounter(&b, "gqbe_cache_hits_total", "Result cache hits.", hits)
	promCounter(&b, "gqbe_cache_misses_total", "Result cache misses.", misses)
	promCounter(&b, "gqbe_cache_evictions_total", "Result cache LRU evictions.", evictions)
	promCounter(&b, "gqbe_cache_skipped_fast_total",
		"Results not cached because their search beat the CacheMinLatency admission floor.", m.cacheSkippedFast.Load())
	promCounter(&b, "gqbe_cache_served_total",
		"Query requests answered from the result cache.", m.cacheServ.Load())
	promCounter(&b, "gqbe_coalesced_total",
		"Query requests answered by joining an identical in-flight search.", m.coalesced.Load())
	promCounter(&b, "gqbe_slow_queries_total",
		"Requests whose total handling time reached the slow-query threshold.", m.slowQueries.Load())

	promCounter(&b, "gqbe_faults_injected_total",
		"Faults fired by the injection registry over the process lifetime (0 in production).", fault.Injected())
	promCounter(&b, "gqbe_recovered_panics_total",
		"Panics recovered into error responses; the process survived each one.", m.recoveredPanics.Load())
	promCounter(&b, "gqbe_stale_served_total",
		"Degraded answers served from retained cache entries after a live-path failure.", m.staleServed.Load())
	promHeader(&b, "gqbe_reloads_total",
		"Hot engine reload attempts by outcome; a rejected attempt left the previous engine serving.", "counter")
	fmt.Fprintf(&b, "gqbe_reloads_total{outcome=%q} %d\n", "ok", m.reloadsOK.Load())
	fmt.Fprintf(&b, "gqbe_reloads_total{outcome=%q} %d\n", "rejected", m.reloadsRejected.Load())
	promCounter(&b, "gqbe_brownouts_total",
		"Searches executed under the brownout evaluation cap.", m.brownouts.Load())
	promHeader(&b, "gqbe_search_stopped_total",
		"Engine searches by why the lattice search stopped (cache hits and coalesced answers excluded).", "counter")
	for i, r := range stopReasons {
		fmt.Fprintf(&b, "gqbe_search_stopped_total{reason=%q} %d\n", r, m.searchStopped[i].Load())
	}

	promGauge(&b, "gqbe_cache_entries", "Result cache entries resident.", float64(s.cache.len()))
	promGauge(&b, "gqbe_in_flight_requests", "Requests currently being handled.", float64(m.inFlight.Load()))
	promGauge(&b, "gqbe_busy_workers", "Admission worker slots currently held by searches.", float64(s.adm.busy()))
	promGauge(&b, "gqbe_graph_entities", "Entities in the loaded knowledge graph.", float64(eg.eng.NumEntities()))
	promGauge(&b, "gqbe_graph_facts", "Facts (triples) in the loaded knowledge graph.", float64(eg.eng.NumFacts()))
	promGauge(&b, "gqbe_graph_predicates", "Distinct predicates in the loaded knowledge graph.", float64(eg.eng.NumPredicates()))
	promGauge(&b, "gqbe_engine_generation",
		"Serving engine's hot-reload generation (1 at boot, +1 per successful reload).", float64(eg.gen))
	promGauge(&b, "gqbe_snapshot_mapped_bytes",
		"Size of the memory-mapped snapshot backing the serving engine (0 for heap-loaded engines).",
		float64(eg.eng.BuildInfo().MappedBytes))

	promHistogram(&b, "gqbe_search_latency_seconds",
		"Engine search time per executed query (queue wait excluded; cache hits and coalesced answers excluded).",
		m.searchLat.Snapshot())
	promHistogram(&b, "gqbe_queue_wait_seconds",
		"Admission queue wait per engine execution attempt, shed requests included.",
		m.queueLat.Snapshot())
	promHistogram(&b, "gqbe_request_latency_seconds",
		"Total request handling time for /v1/query and /v1/query:explain.",
		m.totalLat.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

func promHeader(b *bytes.Buffer, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func promCounter(b *bytes.Buffer, name, help string, v uint64) {
	promHeader(b, name, help, "counter")
	fmt.Fprintf(b, "%s %d\n", name, v)
}

func promGauge(b *bytes.Buffer, name, help string, v float64) {
	promHeader(b, name, help, "gauge")
	fmt.Fprintf(b, "%s %s\n", name, promFloat(v))
}

func promHistogram(b *bytes.Buffer, name, help string, snap obs.HistSnapshot) {
	promHeader(b, name, help, "histogram")
	for _, bk := range snap.Buckets {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, promFloat(bk.UpperBound), bk.Cumulative)
	}
	fmt.Fprintf(b, "%s_sum %s\n", name, promFloat(snap.Sum))
	fmt.Fprintf(b, "%s_count %d\n", name, snap.Count)
}

// promFloat renders a float the way the exposition format expects: shortest
// representation, with infinities spelled +Inf/-Inf.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
