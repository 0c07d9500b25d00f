package server

import (
	"bufio"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func getMetrics(t *testing.T, s *Server) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// promSample is one parsed exposition sample: name (with labels stripped),
// raw label text, and value.
type promSample struct {
	labels string
	value  float64
}

// parseExposition validates the line grammar of a 0.0.4 text exposition and
// returns samples[name] (multi-sample families append) plus the set of
// families declared with # TYPE.
func parseExposition(t *testing.T, body string) (map[string][]promSample, map[string]string) {
	t.Helper()
	samples := make(map[string][]promSample)
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// A sample line: name{labels} value, or name value.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		id, raw := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name, labels := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			name, labels = id[:i], id[i+1:len(id)-1]
		}
		samples[name] = append(samples[name], promSample{labels: labels, value: val})
	}
	return samples, types
}

// familyOf maps a sample name to its declared family (histograms expose
// _bucket/_sum/_count under one family name).
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f := strings.TrimSuffix(name, suf); f != name {
			if _, ok := types[f]; ok {
				return f
			}
		}
	}
	return name
}

// TestMetricsExposition is the /metrics golden test: the body parses as
// Prometheus text format 0.0.4, every sample has a declared TYPE, the
// histograms keep their bucket invariants, and the counters agree with the
// /statz snapshot taken from the same server state.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	// One real search, one cache hit, one unknown-entity error: populates
	// served, cache, and errored counters plus all three histograms.
	for _, body := range []string{
		`{"tuple":["Jerry Yang","Yahoo!"]}`,
		`{"tuple":["Jerry Yang","Yahoo!"]}`,
		`{"tuple":["Nobody Anybody","Yahoo!"]}`,
	} {
		postQuery(t, s, body)
	}

	w := getMetrics(t, s)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	samples, types := parseExposition(t, w.Body.String())
	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}
	for name := range samples {
		if _, ok := types[familyOf(name, types)]; !ok {
			t.Errorf("sample %q has no # TYPE declaration", name)
		}
	}

	// Histogram invariants: cumulative buckets are monotone, the final bucket
	// is le="+Inf", and _count matches it exactly.
	for _, h := range []string{"gqbe_search_latency_seconds", "gqbe_queue_wait_seconds", "gqbe_request_latency_seconds"} {
		if types[h] != "histogram" {
			t.Fatalf("%s TYPE = %q, want histogram", h, types[h])
		}
		buckets := samples[h+"_bucket"]
		if len(buckets) == 0 {
			t.Fatalf("%s has no buckets", h)
		}
		prev, prevLE := -1.0, math.Inf(-1)
		for _, bk := range buckets {
			le := strings.TrimSuffix(strings.TrimPrefix(bk.labels, `le="`), `"`)
			ub, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s bucket le %q: %v", h, bk.labels, err)
			}
			if ub <= prevLE {
				t.Errorf("%s bucket bounds not increasing at le=%q", h, le)
			}
			if bk.value < prev {
				t.Errorf("%s cumulative counts decrease at le=%q (%v < %v)", h, le, bk.value, prev)
			}
			prev, prevLE = bk.value, ub
		}
		last := buckets[len(buckets)-1]
		if last.labels != `le="+Inf"` {
			t.Errorf("%s final bucket = %q, want le=\"+Inf\"", h, last.labels)
		}
		count := samples[h+"_count"]
		if len(count) != 1 || count[0].value != last.value {
			t.Errorf("%s_count = %v, want the +Inf bucket value %v", h, count, last.value)
		}
		if len(samples[h+"_sum"]) != 1 {
			t.Errorf("%s_sum missing", h)
		}
	}
	// The three queries each made one admission attempt at most; the search
	// histogram saw exactly the one real search (cache hit and unknown-entity
	// error excluded), matching /statz.
	snap := statz(t, s)
	if got := samples["gqbe_search_latency_seconds_count"][0].value; got != float64(snap.Latency.Samples) {
		t.Errorf("search histogram count = %v, statz samples = %d", got, snap.Latency.Samples)
	}

	// Counter agreement with the /statz snapshot of the same state.
	single := func(name string) float64 {
		t.Helper()
		ss := samples[name]
		if len(ss) != 1 {
			t.Fatalf("%s: want one sample, got %v", name, ss)
		}
		return ss[0].value
	}
	outcome := func(oc string) float64 {
		t.Helper()
		for _, s := range samples["gqbe_query_outcomes_total"] {
			if s.labels == `outcome="`+oc+`"` {
				return s.value
			}
		}
		t.Fatalf("no outcome=%q sample", oc)
		return 0
	}
	for _, c := range []struct {
		got, want float64
		what      string
	}{
		{single("gqbe_requests_total"), float64(snap.Requests), "requests"},
		{outcome("served"), float64(snap.Served), "served"},
		{outcome("errored"), float64(snap.Errors), "errored"},
		{outcome("rejected"), float64(snap.Rejected), "rejected"},
		{outcome("timeout"), float64(snap.Timeouts), "timeouts"},
		{outcome("canceled"), float64(snap.Canceled), "canceled"},
		{single("gqbe_cache_hits_total"), float64(snap.Cache.Hits), "cache hits"},
		{single("gqbe_cache_served_total"), float64(snap.CacheServed), "cache served"},
		{single("gqbe_slow_queries_total"), float64(snap.SlowQueries), "slow queries"},
	} {
		if c.got != c.want {
			t.Errorf("/metrics %s = %v, /statz says %v", c.what, c.got, c.want)
		}
	}
	if single("gqbe_requests_total") != outcome("served")+outcome("errored")+outcome("rejected")+outcome("timeout")+outcome("canceled") {
		t.Error("outcome series do not sum to gqbe_requests_total")
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", w.Code)
	}
}

// TestMetricsSearchStopped: gqbe_search_stopped_total exposes the whole
// fixed reason set from boot (zeros included) and counts each engine search
// once under its Stats.Stopped — here the pinned row-budget case (Fig. 1,
// Jerry Yang/Yahoo!, k 1, 8 rows), while a cache hit counts nothing.
func TestMetricsSearchStopped(t *testing.T) {
	s := newTestServer(t, Config{})
	stopped := func() map[string]float64 {
		t.Helper()
		samples, types := parseExposition(t, getMetrics(t, s).Body.String())
		if types["gqbe_search_stopped_total"] != "counter" {
			t.Fatalf("gqbe_search_stopped_total TYPE = %q, want counter", types["gqbe_search_stopped_total"])
		}
		out := make(map[string]float64)
		for _, sm := range samples["gqbe_search_stopped_total"] {
			out[sm.labels] = sm.value
		}
		return out
	}
	before := stopped()
	for _, r := range stopReasons {
		if v, ok := before[`reason="`+string(r)+`"`]; !ok || v != 0 {
			t.Errorf("reason %q at boot: (%v, present %v), want a 0 sample", r, v, ok)
		}
	}
	if len(before) != len(stopReasons) {
		t.Errorf("boot exposition has %d reasons, want %d: %v", len(before), len(stopReasons), before)
	}

	w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"],"k":1,"max_rows":8,"no_cache":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := decodeQuery(t, w).Stats.Stopped; got != "row-budget" {
		t.Fatalf("response stopped = %q, want row-budget", got)
	}
	after := stopped()
	for labels, v := range after {
		want := 0.0
		if labels == `reason="row-budget"` {
			want = 1
		}
		if v != want {
			t.Errorf("%s = %v, want %v", labels, v, want)
		}
	}

	// A search and then a cache hit of the same key: one more count.
	for i := 0; i < 2; i++ {
		if w := postQuery(t, s, `{"tuple":["Jerry Yang","Yahoo!"]}`); w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
	}
	total := 0.0
	for _, v := range stopped() {
		total += v
	}
	if total != 2 {
		t.Errorf("searches counted = %v, want 2 (the cache hit must not count)", total)
	}
}
