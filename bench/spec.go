//go:build linux

package main

import (
	"encoding/json"
	"io"
	"time"
)

// This file is the benchmark's definition: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metric names.
// BENCHMARK.json at the repository root repeats the names, units and bounds
// for the driver; TestSpecMatchesBenchmarkJSON keeps the two identical.

// workload is one named traffic mix. Everything that shapes its work is a
// constant here, so two runs of one commit do the same work and only the
// --seed-driven order differs.
type workload struct {
	Name string
	Why  string
	// Served workloads drive real child processes over loopback HTTP; the
	// others call gqbe.Engine in-process.
	Served bool
	// Fleet puts a gqberouter and two gqbed shard children in front.
	Fleet bool
	// Hot draws Zipf(1.1) from a small key set that fits the result cache;
	// otherwise every request is a unique (tuple, k) key.
	Hot bool
	// Rate is the open-phase arrival rate in requests per second.
	Rate float64
	// OpenConns is the number of connections the open phase sends on.
	// Independent users do not queue behind each other, so a request must
	// wait at the server, not in the generator. Two suffice for 0.15 ms
	// cache hits (and sixteen sleeping sender threads would themselves delay
	// a 2 000 rps schedule); the cold streams need more, because with one
	// connection per CPU a single 100 ms search held half the generator and
	// the requests that happened to sit behind it set the tail.
	OpenConns int
	// SLO is the latency limit behind slo_met_share.
	SLO time.Duration
	// TailPct is the reported tail percentile. It leaves at least ten samples
	// beyond it at the planned sample count, and it is lowered from there
	// until ten runs on ten seeds agree on it within the metric's bound.
	TailPct float64
}

// openShare is the part of a served run's --seconds spent in the open
// (Poisson) phase; the rest is the closed-loop saturation phase.
const openShare = 0.6

var workloads = []workload{
	{
		Name:    "lib-light",
		Why:     "in-process light tuples: neighborhood, MQG discovery/merge and lattice build are at least half of each op, search is small",
		SLO:     5 * time.Millisecond,
		TailPct: 99,
	},
	{
		Name:    "lib-heavy",
		Why:     "in-process heavy tuples and one blowup tuple: topk/exec/storage do over 98% of the work and the front half under 2%",
		SLO:     250 * time.Millisecond,
		TailPct: 95,
	},
	{
		Name:      "serve-hot",
		Why:       "gqbed child, Zipf over ~100 cached keys: decode, cache hit, encode and net/http do the work, the engine almost none",
		Served:    true,
		Hot:       true,
		Rate:      2000,
		OpenConns: 2,
		SLO:       10 * time.Millisecond,
		TailPct:   95, // p99 is set by whether a 50-100 ms stall of the box fell into the phase
	},
	{
		Name:      "serve-cold",
		Why:       "gqbed child, every request a unique key: the cache only misses, inserts and evicts, admission and the engine dominate",
		Served:    true,
		Rate:      40,
		OpenConns: 16,
		SLO:       500 * time.Millisecond,
		// p95 of 500 requests is the 25th slowest, which sits at a cliff in
		// the service times (22 requests per phase take 70-170 ms, the next
		// take under 50): ten seeds put its quartiles 18-25% apart. p90 lies
		// among the 4-25 ms searches: 10-15%.
		TailPct: 90,
	},
	{
		Name:      "fleet-cold",
		Why:       "gqberouter over two gqbed shards on serve-cold's identical request stream: scatter/merge beside single node",
		Served:    true,
		Fleet:     true,
		Rate:      40,
		OpenConns: 16,
		SLO:       500 * time.Millisecond,
		TailPct:   90,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The bounds are what this two-core box can resolve, not what one would like
// to catch: across ten seeds the distance between the quartiles was up to 20%
// of the median for query_p50_ms (serve-hot; 2% on lib-light), 16% for
// query_tail_ms, 12% for throughput_qps, 14% for cpu_ms_per_query and 15% for
// rss_peak_mb, and a bound inside the spread rejects unchanged code.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_tail_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.20},
	{"slo_met_share", "share", "higher", 0.02},
	{"cpu_ms_per_query", "ms", "lower", 0.20},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

var perLayer = []metricSpec{
	// Front half of the pipeline: should move query_p50_ms, throughput_qps
	// and cpu_ms_per_query on lib-light, query_p50_ms on serve-cold, and
	// nothing on lib-heavy or serve-hot.
	{Name: "graph.resolve_us", Unit: "us", Better: "lower"},
	{Name: "neighborhood.extract_us", Unit: "us", Better: "lower"},
	{Name: "neighborhood.ht_edges", Unit: "count", Better: "lower"},
	{Name: "neighborhood.reduced_edges", Unit: "count", Better: "lower"},
	{Name: "mqg.discover_us", Unit: "us", Better: "lower"},
	{Name: "mqg.merge_us", Unit: "us", Better: "lower"},
	{Name: "mqg.edges", Unit: "count", Better: "lower"},
	{Name: "lattice.build_us", Unit: "us", Better: "lower"},
	{Name: "lattice.minimal_trees", Unit: "count", Better: "lower"},
	{Name: "core.glue_us", Unit: "us", Better: "lower"},
	{Name: "lib.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "lib.alloc_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "lib.gc_pause_ms", Unit: "ms", Better: "lower"},
	// Search half: throughput_qps, query_tail_ms and cpu_ms_per_query on
	// lib-heavy; tail, throughput and slo_met_share on serve-cold and
	// fleet-cold; little on lib-light, nothing on serve-hot.
	{Name: "topk.search_us", Unit: "us", Better: "lower"},
	{Name: "topk.nodes_evaluated", Unit: "count", Better: "lower"},
	{Name: "topk.null_nodes", Unit: "count", Better: "lower"},
	{Name: "topk.null_share", Unit: "share", Better: "lower"},
	{Name: "topk.nodes_generated", Unit: "count", Better: "lower"},
	{Name: "topk.nodes_pruned", Unit: "count", Better: "higher"},
	{Name: "topk.frontier_recomputes", Unit: "count", Better: "lower"},
	{Name: "topk.row_budget_skips", Unit: "count", Better: "lower"},
	{Name: "topk.tuples_seen", Unit: "count", Better: "lower"},
	{Name: "exec.replay_us", Unit: "us", Better: "lower"},
	{Name: "exec.rows_materialized", Unit: "count", Better: "lower"},
	{Name: "exec.rows_per_answer", Unit: "count", Better: "lower"},
	{Name: "exec.memo_hits", Unit: "count", Better: "higher"},
	{Name: "exec.incremental_joins", Unit: "count", Better: "higher"},
	{Name: "exec.scratch_joins", Unit: "count", Better: "lower"},
	{Name: "storage.pairs_in_mqg_tables", Unit: "count", Better: "lower"},
	{Name: "lib.blowup_ms", Unit: "ms", Better: "lower"},
	// Serving layers: query_p50_ms, throughput_qps and cpu_ms_per_query on
	// serve-hot; overhead only on serve-cold; nothing on lib-*.
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.decode_us", Unit: "us", Better: "lower"},
	{Name: "server.normalize_us", Unit: "us", Better: "lower"},
	{Name: "server.cachekey_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "server.response_bytes", Unit: "B", Better: "lower"},
	{Name: "http.loopback_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.cache_skipped_fast", Unit: "count", Better: "lower"},
	{Name: "server.coalesced", Unit: "count", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.timeouts", Unit: "count", Better: "lower"},
	{Name: "server.search_p50_ms", Unit: "ms", Better: "lower"},
	// Router: fleet-cold only — cpu_ms_per_query and rss_peak_mb about twice
	// serve-cold's, query_p50_ms up by the hop, tail set by the slower shard.
	{Name: "router.handler_us", Unit: "us", Better: "lower"},
	{Name: "router.shard_max_us", Unit: "us", Better: "lower"},
	{Name: "router.overhead_us", Unit: "us", Better: "lower"},
	{Name: "router.shard_requests_per_query", Unit: "count", Better: "lower"},
	{Name: "router.partial_share", Unit: "share", Better: "lower"},
	{Name: "router.cache_hit_share", Unit: "share", Better: "higher"},
	// Set-up layers: setup_s on lib-* (parse, build, stats) and on the
	// served workloads (snapshot, shard cut, daemon boot).
	{Name: "triples.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.build_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_open_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_load_heap_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "kgshard.cut_ms", Unit: "ms", Better: "lower"},
	{Name: "gqbed.boot_ms", Unit: "ms", Better: "lower"},
	// Where the traced time went, as shares of query (request) time.
	{Name: "trace.front_self_share", Unit: "share", Better: "lower"},
	{Name: "trace.serving_self_share", Unit: "share", Better: "lower"},
	// Validity of the run itself, not performance of the program.
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "gen.sent", Unit: "count", Better: "higher"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.inflight_max", Unit: "count", Better: "lower"},
}

// writeBenchmarkJSON renders the definitions above as the driver's contract
// file; `bench spec > BENCHMARK.json` regenerates it.
func writeBenchmarkJSON(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []named      `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"` // no bounds: omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, named{wl.Name, wl.Why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
