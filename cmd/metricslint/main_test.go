package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gqbe"
	"gqbe/internal/router"
	"gqbe/internal/server"
	"gqbe/internal/testkg"
)

const goodExposition = `# HELP gqbe_requests_total Query requests received.
# TYPE gqbe_requests_total counter
gqbe_requests_total 3
# HELP gqbe_query_outcomes_total Outcomes.
# TYPE gqbe_query_outcomes_total counter
gqbe_query_outcomes_total{outcome="served"} 2
gqbe_query_outcomes_total{outcome="errored"} 1
# HELP gqbe_search_latency_seconds Search time.
# TYPE gqbe_search_latency_seconds histogram
gqbe_search_latency_seconds_bucket{le="0.001"} 1
gqbe_search_latency_seconds_bucket{le="0.1"} 2
gqbe_search_latency_seconds_bucket{le="+Inf"} 2
gqbe_search_latency_seconds_sum 0.05
gqbe_search_latency_seconds_count 2
`

func TestLintMetricsClean(t *testing.T) {
	if fs := lintMetrics(strings.NewReader(goodExposition), nil); len(fs) != 0 {
		t.Fatalf("findings on a clean exposition: %v", fs)
	}
}

func TestLintMetricsViolations(t *testing.T) {
	cases := map[string]struct {
		body string
		want string
	}{
		"no samples": {
			body: "# HELP x y\n# TYPE x counter\n",
			want: "no samples",
		},
		"undeclared family": {
			body: "orphan_total 1\n",
			want: "no # TYPE declaration",
		},
		"unknown type": {
			body: "# TYPE x widget\nx 1\n",
			want: "unknown metric type",
		},
		"unparseable value": {
			body: "# TYPE x counter\nx banana\n",
			want: "unparseable value",
		},
		"non-monotone buckets": {
			body: "# TYPE h histogram\n" +
				"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
			want: "cumulative count decreases",
		},
		"missing +Inf": {
			body: "# TYPE h histogram\n" +
				"h_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n",
			want: "want le=\"+Inf\"",
		},
		"count mismatch": {
			body: "# TYPE h histogram\n" +
				"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n",
			want: "_count 5 != +Inf bucket 2",
		},
		"missing sum": {
			body: "# TYPE h histogram\n" +
				"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
			want: "_sum",
		},
		"bounds not increasing": {
			body: "# TYPE h histogram\n" +
				"h_bucket{le=\"0.5\"} 1\nh_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			want: "bounds not increasing",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			fs := lintMetrics(strings.NewReader(tc.body), nil)
			found := false
			for _, f := range fs {
				if strings.Contains(f, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("findings %v do not mention %q", fs, tc.want)
			}
		})
	}
}

const goodExplain = `{
  "request_id": "ab-000001",
  "answers": [{"entities": ["Jerry Yang", "Yahoo!"], "score": 1.0}],
  "stats": {"nodes_evaluated": 2, "mqg_edges": 3},
  "lattice": {"generated": 4, "evaluated": 2, "pruned": 1, "null": 0,
              "frontier_recomputations": 0, "stop_reason": "topk-proven"},
  "node_evals": [{"edges": [0, 1], "rows": 3, "eval_us": 10},
                 {"edges": [0], "rows": 1, "eval_us": 4}],
  "trace": {"name": "query", "duration_us": 1200, "children": []},
  "serving": {"queue_wait_ms": 0.01, "timeout_ms": 10000}
}`

const faultExposition = `# TYPE gqbe_faults_injected_total counter
gqbe_faults_injected_total 7
# TYPE gqbe_recovered_panics_total counter
gqbe_recovered_panics_total 2
# TYPE gqbe_stale_served_total counter
gqbe_stale_served_total 1
# TYPE gqbe_reloads_total counter
gqbe_reloads_total{outcome="ok"} 3
gqbe_reloads_total{outcome="rejected"} 1
# TYPE gqbe_brownouts_total counter
gqbe_brownouts_total 4
# TYPE gqbe_engine_generation gauge
gqbe_engine_generation 4
# TYPE gqbe_search_stopped_total counter
gqbe_search_stopped_total{reason="topk-proven"} 5
gqbe_search_stopped_total{reason="row-budget"} 1
`

func TestLintMetricsRequiredFamilies(t *testing.T) {
	if fs := lintMetrics(strings.NewReader(faultExposition), gqbeRequiredFamilies); len(fs) != 0 {
		t.Fatalf("findings on an exposition carrying every required family: %v", fs)
	}
	// Dropping one family must produce both targeted findings paths: no
	// TYPE declaration at all, and declared-but-unsampled.
	dropped := strings.ReplaceAll(faultExposition, "# TYPE gqbe_brownouts_total counter\ngqbe_brownouts_total 4\n", "")
	fs := lintMetrics(strings.NewReader(dropped), gqbeRequiredFamilies)
	if len(fs) != 1 || !strings.Contains(fs[0], "required family gqbe_brownouts_total") {
		t.Errorf("dropped family findings = %v, want one mentioning gqbe_brownouts_total", fs)
	}
	unsampled := strings.ReplaceAll(faultExposition, "gqbe_stale_served_total 1\n", "")
	fs = lintMetrics(strings.NewReader(unsampled), gqbeRequiredFamilies)
	if len(fs) != 1 || !strings.Contains(fs[0], "gqbe_stale_served_total has no samples") {
		t.Errorf("unsampled family findings = %v, want one mentioning gqbe_stale_served_total", fs)
	}
}

func TestLintExplainClean(t *testing.T) {
	if fs := lintExplain([]byte(goodExplain)); len(fs) != 0 {
		t.Fatalf("findings on a clean explain: %v", fs)
	}
}

func TestLintExplainViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(string) string
		want   string
	}{
		"not JSON": {
			mutate: func(s string) string { return s[1:] },
			want:   "not valid JSON",
		},
		"missing request_id": {
			mutate: func(s string) string { return strings.Replace(s, `"request_id"`, `"request_idx"`, 1) },
			want:   "missing request_id",
		},
		"eval count mismatch": {
			mutate: func(s string) string { return strings.Replace(s, `"nodes_evaluated": 2`, `"nodes_evaluated": 7`, 1) },
			want:   "node_evals",
		},
		"wrong trace root": {
			mutate: func(s string) string { return strings.Replace(s, `"name": "query"`, `"name": "nope"`, 1) },
			want:   "trace root",
		},
		"generated below evaluated": {
			mutate: func(s string) string { return strings.Replace(s, `"generated": 4`, `"generated": 1`, 1) },
			want:   "generated",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			fs := lintExplain([]byte(tc.mutate(goodExplain)))
			found := false
			for _, f := range fs {
				if strings.Contains(f, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("findings %v do not mention %q", fs, tc.want)
			}
		})
	}
}

// TestLintExplainTruncated: a capped explain response replays only a prefix
// of node_evals — legal exactly when it says "truncated": true, and never
// beyond what the stats claim was evaluated.
func TestLintExplainTruncated(t *testing.T) {
	truncate := func(s string) string {
		s = strings.Replace(s, `"request_id"`, `"truncated": true, "request_id"`, 1)
		return strings.Replace(s,
			`"node_evals": [{"edges": [0, 1], "rows": 3, "eval_us": 10},
                 {"edges": [0], "rows": 1, "eval_us": 4}]`,
			`"node_evals": [{"edges": [0, 1], "rows": 3, "eval_us": 10}]`, 1)
	}
	if fs := lintExplain([]byte(truncate(goodExplain))); len(fs) != 0 {
		t.Errorf("findings on a truncated explain with a legal prefix: %v", fs)
	}
	// The same prefix without the truncated marker is a mismatch.
	untagged := strings.Replace(truncate(goodExplain), `"truncated": true, `, "", 1)
	if fs := lintExplain([]byte(untagged)); len(fs) == 0 {
		t.Error("short node_evals without truncated marker produced no findings")
	}
	// Truncated or not, node_evals must never exceed stats.nodes_evaluated.
	over := strings.Replace(truncate(goodExplain), `"nodes_evaluated": 2`, `"nodes_evaluated": 0`, 1)
	over = strings.Replace(over, `"evaluated": 2`, `"evaluated": 0`, 1)
	fs := lintExplain([]byte(over))
	found := false
	for _, f := range fs {
		if strings.Contains(f, "beyond stats.nodes_evaluated") {
			found = true
		}
	}
	if !found {
		t.Errorf("findings %v do not flag node_evals beyond stats", fs)
	}
}

// TestLintMetricsRouterScrape lints a LIVE gqberouter /metrics scrape against
// the -router family contract: the gate and the router's exposition must
// never drift apart, and the exposition must stay well-formed (histogram
// invariants included) with real traffic behind the counters.
func TestLintMetricsRouterScrape(t *testing.T) {
	b := gqbe.NewBuilder()
	for _, tr := range testkg.Fig1Triples() {
		b.Add(tr[0], tr[1], tr[2])
	}
	eng, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var shards []string
	for i := 0; i < 2; i++ {
		se, err := eng.WithShard(i, 2)
		if err != nil {
			t.Fatalf("WithShard: %v", err)
		}
		srv := httptest.NewServer(server.New(se, server.Config{Logger: quiet}))
		defer srv.Close()
		shards = append(shards, srv.URL)
	}
	rt, err := router.New(router.Config{Shards: shards, Logger: quiet})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	// Put real traffic behind the counters: a served query and an errored one.
	for _, body := range []string{
		`{"tuple":["Jerry Yang","Yahoo!"],"k":5}`,
		`{"tuple":["Nobody Anybody","Yahoo!"],"k":5}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rt.ServeHTTP(httptest.NewRecorder(), req)
	}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	if fs := lintMetrics(strings.NewReader(w.Body.String()), routerRequiredFamilies); len(fs) != 0 {
		t.Fatalf("findings on a live router scrape: %v", fs)
	}
	// The gate has teeth: a scrape missing a fleet family fails.
	gutted := strings.ReplaceAll(w.Body.String(), "gqbe_router_partial_total", "gqbe_router_renamed_total")
	fs := lintMetrics(strings.NewReader(gutted), routerRequiredFamilies)
	found := false
	for _, f := range fs {
		if strings.Contains(f, "required family gqbe_router_partial_total") {
			found = true
		}
	}
	if !found {
		t.Errorf("findings %v do not flag the dropped router family", fs)
	}
}
