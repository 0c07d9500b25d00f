package router

import (
	"encoding/json"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gqbe"
	"gqbe/internal/kgsynth"
	"gqbe/internal/server"
	"gqbe/internal/testkg"
	"gqbe/internal/triples"
)

// The oracle suite: every test here pins the router's merged output against
// the single-node daemon it claims to be bit-identical to. The fleet and the
// baseline run over the SAME engine — the shards via Engine.WithShard(i, n),
// the baseline unsharded — so any divergence is the router's fault, not the
// data's. Responses are compared as decoded wire structs with only the
// timing fields zeroed (wall-clock is the one legitimately nondeterministic
// part of a response).

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fig1Engine builds a public engine over the paper's Fig. 1 excerpt.
func fig1Engine(t *testing.T) *gqbe.Engine {
	t.Helper()
	b := gqbe.NewBuilder()
	for _, tr := range testkg.Fig1Triples() {
		b.Add(tr[0], tr[1], tr[2])
	}
	eng, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return eng
}

// testFleet is a router fronting n live shard daemons, plus the single-node
// baseline the oracle compares against.
type testFleet struct {
	rt       *Router
	baseline http.Handler
	shards   []*httptest.Server
}

// newFleet boots n shard daemons over eng — each restricted to its answer
// partition via WithShard(i, n) — and the unsharded baseline over the same
// engine, then fronts the shards with a router. Every daemon runs with scfg
// (admission slots, stale serving), its cache admission floor off and a
// quiet Logger. mw, when non-nil, wraps each shard's handler (chaos tests
// inject faults there). rcfg tunes the router; Shards and a quiet Logger are
// filled in here.
func newFleet(t *testing.T, eng *gqbe.Engine, n int, scfg server.Config, mw func(i int, h http.Handler) http.Handler, rcfg Config) *testFleet {
	t.Helper()
	// Fig. 1-scale answers arrive in microseconds; the default cache
	// admission floor (1ms) would reject them all.
	scfg.CacheMinLatency = -1
	scfg.Logger = quietLogger()
	f := &testFleet{baseline: server.New(eng, scfg)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		se, err := eng.WithShard(i, n)
		if err != nil {
			t.Fatalf("WithShard(%d, %d): %v", i, n, err)
		}
		var h http.Handler = server.New(se, scfg)
		if mw != nil {
			h = mw(i, h)
		}
		srv := httptest.NewUnstartedServer(h)
		// Chaos middlewares panic and sever connections on purpose; keep the
		// net/http server's complaints about that out of the test log.
		srv.Config.ErrorLog = log.New(io.Discard, "", 0)
		srv.Start()
		f.shards = append(f.shards, srv)
		urls[i] = srv.URL
	}
	t.Cleanup(func() {
		for _, s := range f.shards {
			s.Close()
		}
	})
	rcfg.Shards = urls
	if rcfg.Logger == nil {
		rcfg.Logger = quietLogger()
	}
	rt, err := New(rcfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.rt = rt
	return f
}

// post drives any handler (router or baseline) through the recorder.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeQueryResp(t *testing.T, w *httptest.ResponseRecorder) server.QueryResponse {
	t.Helper()
	var out server.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return out
}

// zeroTimings clears the only legitimately nondeterministic response fields.
func zeroTimings(r *server.QueryResponse) {
	r.Stats.DiscoveryMS = 0
	r.Stats.MergeMS = 0
	r.Stats.ProcessingMS = 0
}

// fleetMatrix is the shard-count × admission-worker sweep every oracle test
// runs under. The workers axis varies only the daemons' admission slot
// count (one slot or eight); neither may perturb the merged ranking any more
// than sharding does.
var fleetMatrix = []struct {
	shards, workers int
}{
	{1, 1}, {1, 8},
	{2, 1}, {2, 8},
	{4, 1}, {4, 8},
	{8, 1}, {8, 8},
}

// fig1Queries sweeps the request-option surface over the Fig. 1 graph,
// including deterministic error verdicts (unknown entity, single-entity
// tuple) the router must forward verbatim.
var fig1Queries = []struct {
	name, body string
}{
	{"founder pair k10", `{"tuple":["Jerry Yang","Yahoo!"],"k":10}`},
	{"exhaustive k1000", `{"tuple":["Jerry Yang","Yahoo!"],"k":1000,"kprime":1000}`},
	{"top1", `{"tuple":["Jerry Yang","Yahoo!"],"k":1,"kprime":1}`},
	{"eval budget", `{"tuple":["Jerry Yang","Yahoo!"],"k":1000,"kprime":1000,"max_evaluations":3}`},
	{"row budget", `{"tuple":["Jerry Yang","Yahoo!"],"k":10,"max_rows":8}`},
	{"multi tuple", `{"tuples":[["Jerry Yang","Yahoo!"],["Sergey Brin","Google"]],"k":10}`},
	{"single entity", `{"tuple":["Stanford"],"k":5}`},
	{"unknown entity", `{"tuple":["Nobody Anybody","Yahoo!"],"k":5}`},
}

// expectOracleMatch posts body to the baseline and to the router and demands
// the identical status and (timing-zeroed) payload from both.
func expectOracleMatch(t *testing.T, f *testFleet, body string) {
	t.Helper()
	bw := post(t, f.baseline, "/v1/query", body)
	rw := post(t, f.rt, "/v1/query", body)
	if rw.Code != bw.Code {
		t.Fatalf("router status = %d, baseline %d; router body %s", rw.Code, bw.Code, rw.Body.String())
	}
	if bw.Code != http.StatusOK {
		// Deterministic verdicts forward verbatim: same error envelope.
		if !reflect.DeepEqual(rw.Body.Bytes(), bw.Body.Bytes()) {
			t.Fatalf("error body diverged:\nrouter   %s\nbaseline %s", rw.Body.String(), bw.Body.String())
		}
		return
	}
	br := decodeQueryResp(t, bw)
	rr := decodeQueryResp(t, rw)
	zeroTimings(&br)
	zeroTimings(&rr)
	if !reflect.DeepEqual(rr, br) {
		t.Fatalf("merged response diverged from single node:\nrouter   %+v\nbaseline %+v", rr, br)
	}
}

// TestOracleFig1 posts every query twice: the repeat is a cache hit on the
// single node and on every shard, so it pins the merged serving flags too.
func TestOracleFig1(t *testing.T) {
	eng := fig1Engine(t)
	for _, m := range fleetMatrix {
		m := m
		t.Run(shardName(m.shards)+"-w"+string(rune('0'+m.workers)), func(t *testing.T) {
			f := newFleet(t, eng, m.shards, server.Config{MaxConcurrent: m.workers}, nil, Config{})
			for _, q := range fig1Queries {
				q := q
				t.Run(q.name, func(t *testing.T) {
					expectOracleMatch(t, f, q.body)
					expectOracleMatch(t, f, q.body)
				})
			}
		})
	}
}

// TestOracleKGSynth replays the paper-scale oracle on the synthetic
// Freebase-like benchmark graph: real fan-out, deep lattices, score ties —
// everything Fig. 1 is too small to exercise.
func TestOracleKGSynth(t *testing.T) {
	if testing.Short() {
		t.Skip("kgsynth oracle is seconds-long; skipped with -short")
	}
	ds := kgsynth.Freebase(kgsynth.Config{Seed: 42, Scale: 0.25})
	path := filepath.Join(t.TempDir(), "kg.nt")
	if err := triples.WriteStreamFile(path, ds.Graph); err != nil {
		t.Fatalf("WriteStreamFile: %v", err)
	}
	eng, err := gqbe.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	for _, qid := range []string{"F1", "F18"} {
		tuple := ds.MustQuery(qid).QueryTuple()
		req, err := json.Marshal(server.QueryRequest{Tuple: tuple, K: 25})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		for _, m := range []struct{ shards, workers int }{{2, 1}, {4, 8}, {8, 1}} {
			qid, req, m := qid, req, m
			t.Run(qid+"-"+shardName(m.shards)+"-w"+string(rune('0'+m.workers)), func(t *testing.T) {
				f := newFleet(t, eng, m.shards, server.Config{MaxConcurrent: m.workers}, nil, Config{})
				expectOracleMatch(t, f, string(req))
			})
		}
	}
}

// TestOracleExplain pins the explain endpoint's merged search payload: the
// ranking, the trajectory stats, and the per-shard-identical observability
// sections (MQG, lattice, node evals) must match the single node's.
// RequestID, Trace, and Serving are the router's own and are checked
// structurally instead (trace rooted at "query" with one "shard" child per
// shard).
func TestOracleExplain(t *testing.T) {
	eng := fig1Engine(t)
	body := `{"tuple":["Jerry Yang","Yahoo!"],"k":10}`
	for _, m := range fleetMatrix {
		m := m
		t.Run(shardName(m.shards)+"-w"+string(rune('0'+m.workers)), func(t *testing.T) {
			f := newFleet(t, eng, m.shards, server.Config{MaxConcurrent: m.workers}, nil, Config{})
			bw := post(t, f.baseline, "/v1/query:explain", body)
			rw := post(t, f.rt, "/v1/query:explain", body)
			if rw.Code != bw.Code || bw.Code != http.StatusOK {
				t.Fatalf("status: router %d, baseline %d; router body %s", rw.Code, bw.Code, rw.Body.String())
			}
			var be, re server.ExplainJSON
			if err := json.Unmarshal(bw.Body.Bytes(), &be); err != nil {
				t.Fatalf("decoding baseline explain: %v", err)
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &re); err != nil {
				t.Fatalf("decoding router explain: %v", err)
			}
			if !reflect.DeepEqual(re.Answers, be.Answers) {
				t.Errorf("answers diverged:\nrouter   %+v\nbaseline %+v", re.Answers, be.Answers)
			}
			bs, rs := be.Stats, re.Stats
			bs.DiscoveryMS, bs.MergeMS, bs.ProcessingMS = 0, 0, 0
			rs.DiscoveryMS, rs.MergeMS, rs.ProcessingMS = 0, 0, 0
			if !reflect.DeepEqual(rs, bs) {
				t.Errorf("stats diverged:\nrouter   %+v\nbaseline %+v", rs, bs)
			}
			if !reflect.DeepEqual(re.MQG, be.MQG) {
				t.Errorf("mqg diverged:\nrouter   %+v\nbaseline %+v", re.MQG, be.MQG)
			}
			if !reflect.DeepEqual(re.Lattice, be.Lattice) {
				t.Errorf("lattice diverged:\nrouter   %+v\nbaseline %+v", re.Lattice, be.Lattice)
			}
			if len(re.NodeEvals) != len(be.NodeEvals) {
				t.Fatalf("node_evals count: router %d, baseline %d", len(re.NodeEvals), len(be.NodeEvals))
			}
			for i := range be.NodeEvals {
				bn, rn := be.NodeEvals[i], re.NodeEvals[i]
				bn.EvalUS, rn.EvalUS = 0, 0
				if !reflect.DeepEqual(rn, bn) {
					t.Errorf("node_evals[%d] diverged:\nrouter   %+v\nbaseline %+v", i, rn, bn)
				}
			}
			if re.Partial || re.Error != nil {
				t.Errorf("healthy fleet explain marked partial (%v)", re.Error)
			}
			// Router-owned sections: the trace root keeps the daemon's "query"
			// name with one "shard" child per shard carrying that shard's tree.
			if re.Trace.Name != "query" {
				t.Errorf("trace root = %q, want query", re.Trace.Name)
			}
			if len(re.Trace.Children) != m.shards {
				t.Fatalf("trace shard children = %d, want %d", len(re.Trace.Children), m.shards)
			}
			for i, c := range re.Trace.Children {
				if c.Name != "shard" || c.Attrs["shard"] != int64(i) {
					t.Errorf("trace child %d = %q attrs %v, want shard/%d", i, c.Name, c.Attrs, i)
				}
				if len(c.Children) != 1 || c.Children[0].Name != "query" {
					t.Errorf("trace child %d does not carry the shard's own query tree", i)
				}
			}
		})
	}
}

// TestOracleCacheAndCoalesce pins the merged serving flags: cached and
// coalesced are true only when every shard's response says so, since a
// single shard that searched means the fleet searched. Coalescing is
// relabeled in middleware (a Fig. 1 search ends before a second request
// could join it).
func TestOracleCacheAndCoalesce(t *testing.T) {
	eng := fig1Engine(t)
	f := newFleet(t, eng, 4, server.Config{}, nil, Config{})
	body := `{"tuple":["Jerry Yang","Yahoo!"],"k":10}`

	first := decodeQueryResp(t, post(t, f.rt, "/v1/query", body))
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	second := decodeQueryResp(t, post(t, f.rt, "/v1/query", body))
	if !second.Cached {
		t.Fatal("repeat query hit every shard's cache but was not reported cached")
	}
	second.Cached = false
	zeroTimings(&first)
	zeroTimings(&second)
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("cached response diverged:\nhit  %+v\nlive %+v", second, first)
	}
	nc := decodeQueryResp(t, post(t, f.rt, "/v1/query", `{"tuple":["Jerry Yang","Yahoo!"],"k":10,"no_cache":true}`))
	if nc.Cached {
		t.Fatal("no_cache query reported cached")
	}

	// One shard warm, the others cold: the fleet still searched.
	const fresh = `{"tuple":["Jerry Yang","Yahoo!"],"k":5}`
	if resp, err := http.Post(f.shards[0].URL+"/v1/query", "application/json", strings.NewReader(fresh)); err != nil {
		t.Fatalf("warming shard 0: %v", err)
	} else {
		resp.Body.Close()
	}
	if res := decodeQueryResp(t, post(t, f.rt, "/v1/query", fresh)); res.Cached {
		t.Fatal("merge reported cached although three shards searched")
	}

	coalesced := relabel(func(qr *server.QueryResponse) { qr.Coalesced = true })
	for _, tc := range []struct {
		name string
		mw   func(i int, h http.Handler) http.Handler
		want bool
	}{
		{"every shard coalesced", func(i int, h http.Handler) http.Handler { return coalesced(h) }, true},
		{"one shard coalesced", onShard(1, coalesced), false},
	} {
		cf := newFleet(t, eng, 3, server.Config{}, tc.mw, Config{})
		if res := decodeQueryResp(t, post(t, cf.rt, "/v1/query", body)); res.Coalesced != tc.want {
			t.Errorf("%s: merged coalesced = %v, want %v", tc.name, res.Coalesced, tc.want)
		}
	}
}

// TestRequestIDPropagation is the regression test for fleet-wide request
// IDs: a valid inbound X-Request-ID is adopted by the router AND by every
// shard it fans to, so one ID threads the whole fleet's logs; an invalid one
// is replaced by a minted ID everywhere.
func TestRequestIDPropagation(t *testing.T) {
	eng := fig1Engine(t)
	var mu sync.Mutex
	var seen []string
	record := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Header.Get("X-Request-ID"))
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	}
	f := newFleet(t, eng, 3, server.Config{}, record, Config{})

	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"tuple":["Jerry Yang","Yahoo!"],"k":3,"no_cache":true}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "oracle-req.42")
	w := httptest.NewRecorder()
	f.rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Request-ID"); got != "oracle-req.42" {
		t.Errorf("router did not adopt the valid inbound ID: got %q", got)
	}
	mu.Lock()
	if len(seen) != 3 {
		t.Fatalf("shards saw %d requests, want 3", len(seen))
	}
	for i, id := range seen {
		if id != "oracle-req.42" {
			t.Errorf("shard call %d carried ID %q, want the adopted inbound ID", i, id)
		}
	}
	seen = seen[:0]
	mu.Unlock()

	// Invalid inbound ID (spaces) must be replaced by a minted one, and the
	// minted one — not the junk — propagates to the shards.
	req = httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"tuple":["Jerry Yang","Yahoo!"],"k":3,"no_cache":true}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "bad id with spaces")
	w = httptest.NewRecorder()
	f.rt.ServeHTTP(w, req)
	minted := w.Header().Get("X-Request-ID")
	if minted == "" || minted == "bad id with spaces" {
		t.Fatalf("router kept an invalid inbound ID: %q", minted)
	}
	mu.Lock()
	for i, id := range seen {
		if id != minted {
			t.Errorf("shard call %d carried ID %q, want minted %q", i, id, minted)
		}
	}
	mu.Unlock()

	// The explain payload carries the fleet-level ID too.
	req = httptest.NewRequest(http.MethodPost, "/v1/query:explain", strings.NewReader(`{"tuple":["Jerry Yang","Yahoo!"],"k":3}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "oracle-explain.7")
	w = httptest.NewRecorder()
	f.rt.ServeHTTP(w, req)
	var ej server.ExplainJSON
	if err := json.Unmarshal(w.Body.Bytes(), &ej); err != nil {
		t.Fatalf("decoding explain: %v", err)
	}
	if ej.RequestID != "oracle-explain.7" {
		t.Errorf("explain request_id = %q, want the adopted inbound ID", ej.RequestID)
	}
}
