//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gqbe"
	"gqbe/internal/core"
	"gqbe/internal/exec"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/obs"
	"gqbe/internal/router"
	"gqbe/internal/server"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
	"gqbe/internal/topk"
	"gqbe/internal/triples"
)

// The traced run replays a workload's operations in this process, with the
// harness driving every layer through its public entry points and recording
// a span around each call. Nothing inside the program is instrumented; the
// engine's own obs tracer is read only for the evaluated-node sequence and
// its row counts. End-to-end numbers never come from here.
//
// --seconds is split between four sections; the set-up layers are timed
// before the clock starts.
const (
	pipelineShare = 0.35 // stage-by-stage pipeline, beside an untraced QueryCtx per op
	replayShare   = 0.25 // the request stream over loopback into an in-process server.Server
	microShare    = 0.15 // decode/normalize/key/handler/encode, one op at a time
	routerShare   = 0.25 // router.Router over two in-process shard servers
)

// defaultDepth and defaultMQGSize are the engine's defaults (gqbe.Options),
// which the stage-by-stage replay has to repeat.
const (
	defaultDepth   = 2
	defaultMQGSize = 15
)

// samples collects per-operation values of the per-layer metrics; the run
// reports each metric's median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func runTraced(cfg runConfig, w workload, pools *poolFile) (*result, error) {
	r := newResult(cfg, w)
	binDir, err := buildChildren(cfg.Root)
	if err != nil {
		return nil, err
	}
	ds, err := newDataset(cfg.Root)
	if err != nil {
		return nil, err
	}
	defer ds.close()
	sm := samples{}
	if err := traceSetup(cfg, ds, binDir, sm); err != nil {
		return nil, err
	}

	// The engines the replay drives: built from triples for lib-*, mapped
	// from the snapshot for the served workloads, as the programs do.
	var ceng *core.Engine
	var eng *gqbe.Engine
	if w.Served {
		if ceng, err = core.OpenSnapshotMapped(ds.snap); err == nil {
			eng, err = gqbe.OpenSnapshotMapped(ds.snap)
		}
	} else {
		var g *graph.Graph
		if g, err = triples.LoadGraphFile(ds.tsv); err == nil {
			ceng = core.NewEngine(g)
			eng, err = gqbe.LoadFile(ds.tsv)
		}
	}
	if err != nil {
		return nil, err
	}
	defer ceng.Close()
	defer eng.Close()

	st := newStream(w, pools, cfg.Seed, cfg.Quick)
	ops, blowup := traceOps(w, pools, st, cfg)
	tr := newTracer()
	budget := func(share float64) time.Duration {
		return time.Duration(cfg.Seconds * share * float64(time.Second))
	}
	tracePipeline(r, tr, sm, ceng, eng, ops, blowup, budget(pipelineShare))
	if err := traceReplay(r, tr, sm, w, eng, st, ops, budget(replayShare)); err != nil {
		return nil, err
	}
	traceMicro(r, sm, eng, ops, budget(microShare))
	if err := traceRouter(r, tr, sm, eng, ops, budget(routerShare)); err != nil {
		return nil, err
	}

	for name, vs := range sm {
		r.Metrics[name] = median(vs)
	}
	total, self := tr.selfTimes()
	share := func(of time.Duration, names ...string) float64 {
		var sum time.Duration
		for _, n := range names {
			sum += self[n]
		}
		if of <= 0 {
			return 0
		}
		return float64(sum) / float64(of)
	}
	r.Metrics["trace.front_self_share"] = share(total["query"],
		"neighborhood.extract", "mqg.discover", "mqg.merge", "lattice.build")
	r.Metrics["trace.serving_self_share"] = share(total["http.request"], "http.request", "server.handler")
	r.Notes["trace.spans"] = float64(tr.len())
	r.Notes["trace.ops"] = float64(len(ops))
	if err := tr.flush(cfg.Root, w.Name, cfg.Seed); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// traceOps is the operation list the in-process sections walk: one pass of a
// lib-* workload, the key set of the hot stream, or one cycle of a cold one.
// Blowup tuples (0.15 s to several seconds each) are kept apart: a section
// checks its budget between ops, and one such op run three ways would
// overshoot it by seconds. tracePipeline times the first of them on its own.
func traceOps(w workload, pools *poolFile, st *stream, cfg runConfig) (ops []op, blowup *op) {
	var all []op
	switch {
	case !w.Served:
		all = shuffled(libPass(w, pools, cfg.Quick), rand.New(rand.NewSource(cfg.Seed)))
	case w.Hot:
		all = st.keys
	default:
		for i := 0; i < st.cycleLen(); i++ {
			all = append(all, st.at(i))
		}
	}
	for i, o := range all {
		if o.Entry.Class != classBlowup {
			ops = append(ops, o)
		} else if blowup == nil {
			blowup = &all[i]
		}
	}
	return ops, blowup
}

// traceSetup times the set-up layers, three times each, and leaves the
// dataset with its snapshot written.
func traceSetup(cfg runConfig, ds *dataset, binDir string, sm samples) error {
	reps := 3
	if cfg.Quick {
		reps = 1
	}
	ds.snap = filepath.Join(ds.dir, "kg.snap")
	for i := 0; i < reps; i++ {
		var err error
		timed := func(name string, f func()) {
			start := time.Now()
			f()
			sm.add(name, ms(time.Since(start)))
		}
		var g *graph.Graph
		timed("triples.parse_ms", func() { g, err = triples.LoadGraphFile(ds.tsv) })
		if err != nil {
			return err
		}
		var store *storage.Store
		timed("storage.build_ms", func() { store = storage.Build(g) })
		timed("stats.build_ms", func() { stats.New(store) })
		ceng := core.NewEngine(g)
		timed("core.snapshot_write_ms", func() { err = ceng.WriteSnapshotFile(ds.snap) })
		if err != nil {
			return err
		}
		timed("core.snapshot_open_mapped_ms", func() {
			var e *core.Engine
			if e, err = core.OpenSnapshotMapped(ds.snap); err == nil {
				err = e.Close()
			}
		})
		if err != nil {
			return err
		}
		timed("core.snapshot_load_heap_ms", func() { _, err = core.LoadSnapshotFile(ds.snap) })
		if err != nil {
			return err
		}
		info, err := os.Stat(ds.snap)
		if err != nil {
			return err
		}
		sm.add("core.snapshot_bytes", float64(info.Size()))
		_, cut, err := ds.cutShards(binDir, fleetShards)
		if err != nil {
			return err
		}
		sm.add("kgshard.cut_ms", ms(cut))
		dep, took, err := boot(binDir, ds, nil, workload{}, &http.Client{Timeout: time.Second})
		if err != nil {
			return err
		}
		dep.stop()
		sm.add("gqbed.boot_ms", ms(took))
	}
	return nil
}

// resolve maps entity names to node IDs the way gqbe.Engine.resolve does.
func resolve(g *graph.Graph, tuples [][]string) ([][]graph.NodeID, error) {
	out := make([][]graph.NodeID, len(tuples))
	for i, t := range tuples {
		out[i] = make([]graph.NodeID, len(t))
		for j, name := range t {
			id, ok := g.Node(name)
			if !ok {
				return nil, fmt.Errorf("unknown entity %q", name)
			}
			out[i][j] = id
		}
	}
	return out, nil
}

// tracePipeline runs each op three times: once unmeasured, because the first
// execution of a heavy op pays for faulting its arenas in (40% on top, on
// this box) and would make whichever measured run came first look slow; then
// once through gqbe.Engine untraced (the baseline the glue and the tracing
// overhead are measured against) and once stage by stage with a span around
// every stage, in alternating order. Last it replays the evaluated lattice
// nodes through exec alone.
func tracePipeline(r *result, tr *tracer, sm samples, ceng *core.Engine, eng *gqbe.Engine, ops []op, blowup *op, budget time.Duration) {
	p := &pipeline{r: r, tr: tr, sm: sm, ceng: ceng, stats: stats.New(ceng.Store())}
	var gcPause, libQueries float64
	var ms0, ms1 runtime.MemStats
	baseline := func(o op) (*gqbe.Result, time.Duration, error) {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res, err := libQuery(eng, o)
		took := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		sm.add("lib.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs))
		sm.add("lib.alloc_kb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
		gcPause += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		libQueries++
		return res, took, err
	}

	// The blowup op, once, untraced and inside the section's budget: at a
	// second or so, replaying it stage by stage would be the whole section.
	start := time.Now()
	if blowup != nil {
		r.Attempted++
		if _, took, err := baseline(*blowup); err != nil {
			r.fail("pipeline %s: %v", opKey(*blowup), err)
		} else {
			sm.add("lib.blowup_ms", ms(took))
		}
	}
	for i := 0; time.Since(start) < budget; i++ {
		o := ops[i%len(ops)]
		r.Attempted++
		if _, err := libQuery(eng, o); err != nil {
			r.fail("pipeline %s: %v", opKey(o), err)
			continue
		}
		var res *gqbe.Result
		var libTook time.Duration
		var err error
		if i%2 == 0 {
			res, libTook, err = baseline(o)
		}
		st, ok := p.staged(i, o)
		if i%2 == 1 {
			res, libTook, err = baseline(o)
		}
		if err != nil {
			r.fail("pipeline %s: %v", opKey(o), err)
			continue
		}
		if !ok {
			continue
		}
		sm.add("core.glue_us", us(libTook-st.stages))
		sm.add("trace.overhead_share", float64(st.total-libTook)/float64(libTook))
		// The staged pipeline must give the engine's own answers.
		if err := sameAnswers(res.Answers, st.names, st.scores); err != nil {
			r.fail("pipeline %s: staged answers differ from QueryCtx: %v", opKey(o), err)
		}
	}
	if libQueries > 0 {
		sm.add("lib.gc_pause_ms", gcPause/libQueries)
	}
}

// pipeline drives the engine's stages one public call at a time.
type pipeline struct {
	r     *result
	tr    *tracer
	sm    samples
	ceng  *core.Engine
	stats *stats.Stats
}

// stagedRun is what one stage-by-stage execution produced.
type stagedRun struct {
	names  [][]string
	scores []float64
	stages time.Duration // sum of the stage spans
	total  time.Duration // the enclosing query span
}

func (p *pipeline) staged(i int, o op) (out stagedRun, ok bool) {
	g, store, sm, tr := p.ceng.Graph(), p.ceng.Store(), p.sm, p.tr
	ctx := context.Background()
	root := tr.start("query", -1, i)
	ended := false
	endRoot := func() {
		if !ended {
			ended = true
			out.total = tr.end(root)
		}
	}
	defer endRoot()
	// stage runs f under a span; a failure fails the op.
	stage := func(name, metric string, f func() error) bool {
		id := tr.start(name, root, i)
		err := f()
		d := tr.end(id)
		out.stages += d
		if metric != "" {
			sm.add(metric, us(d))
		}
		if err != nil {
			p.r.fail("pipeline %s: %s: %v", opKey(o), name, err)
		}
		return err == nil
	}

	var tuples [][]graph.NodeID
	if !stage("graph.resolve", "graph.resolve_us", func() (err error) {
		tuples, err = resolve(g, o.Entry.Tuples)
		return
	}) {
		return out, false
	}
	var mqgs []*mqg.MQG
	var extract, discover time.Duration
	htEdges, redEdges := 0, 0
	for _, t := range tuples {
		var nres *neighborhood.Result
		before := out.stages
		if !stage("neighborhood.extract", "", func() (err error) {
			nres, err = neighborhood.ExtractCtx(ctx, g, t, defaultDepth)
			return
		}) {
			return out, false
		}
		extract += out.stages - before
		htEdges += nres.Ht.NumEdges()
		redEdges += nres.Reduced.NumEdges()
		before = out.stages
		found := stage("mqg.discover", "", func() error {
			m, err := mqg.DiscoverCtx(ctx, p.stats, nres.Reduced, t, defaultMQGSize)
			mqgs = append(mqgs, m)
			return err
		})
		nres.Release()
		if !found {
			return out, false
		}
		discover += out.stages - before
	}
	sm.add("neighborhood.extract_us", us(extract))
	sm.add("neighborhood.ht_edges", float64(htEdges))
	sm.add("neighborhood.reduced_edges", float64(redEdges))
	sm.add("mqg.discover_us", us(discover))
	m := mqgs[0]
	if len(mqgs) > 1 {
		if !stage("mqg.merge", "mqg.merge_us", func() (err error) {
			m, err = mqg.MergeCtx(ctx, mqgs, defaultMQGSize)
			return
		}) {
			return out, false
		}
	}
	sm.add("mqg.edges", float64(len(m.Sub.Edges)))
	var lat *lattice.Lattice
	if !stage("lattice.build", "lattice.build_us", func() (err error) {
		lat, err = lattice.NewCtx(ctx, m)
		return
	}) {
		return out, false
	}
	sm.add("lattice.minimal_trees", float64(len(lat.MinimalTrees())))
	// The engine's own tracer rides along only for the node sequence and
	// the row counts; trace.overhead_share includes what it costs.
	otr := obs.New()
	var tres *topk.Result
	if !stage("topk.search", "topk.search_us", func() (err error) {
		tres, err = topk.SearchCtx(ctx, store, lat, tuples, topk.Options{K: o.K, Tracer: otr})
		return
	}) {
		return out, false
	}
	stage("core.answer_names", "", func() error {
		for _, a := range tres.Answers {
			out.names = append(out.names, p.ceng.AnswerNames(a))
			out.scores = append(out.scores, a.Score)
		}
		return nil
	})
	endRoot() // the query ends here; what follows is bookkeeping and the exec-only replay

	sm.add("topk.nodes_evaluated", float64(tres.NodesEvaluated))
	sm.add("topk.null_nodes", float64(tres.NullNodes))
	if tres.NodesEvaluated > 0 {
		sm.add("topk.null_share", float64(tres.NullNodes)/float64(tres.NodesEvaluated))
	}
	sm.add("topk.nodes_generated", float64(tres.NodesGenerated))
	sm.add("topk.nodes_pruned", float64(tres.NodesPruned))
	sm.add("topk.frontier_recomputes", float64(tres.FrontierRecomputes))
	sm.add("topk.row_budget_skips", float64(tres.RowBudgetSkips))
	sm.add("topk.tuples_seen", float64(tres.TuplesSeen))
	for _, a := range otr.Root().Attrs {
		switch a.Key {
		case "exec_memo_hits":
			sm.add("exec.memo_hits", float64(a.Val))
		case "exec_incremental_joins":
			sm.add("exec.incremental_joins", float64(a.Val))
		case "exec_scratch_evals":
			sm.add("exec.scratch_joins", float64(a.Val))
		}
	}
	pairs := 0
	for _, e := range m.Sub.Edges {
		if t, ok := store.Table(e.Label); ok {
			pairs += t.Len()
		}
	}
	sm.add("storage.pairs_in_mqg_tables", float64(pairs))

	// exec alone: the same node sequence, no frontier, no scoring. Its own
	// root span, outside the query span.
	rows := 0
	replay := tr.start("exec.replay", -1, i)
	ev := exec.New(store, lat, exec.WithMaxRows(exec.DefaultMaxRows))
	for _, ne := range otr.NodeEvals() {
		rs, err := ev.Evaluate(lattice.EdgeSet(ne.Node))
		if err != nil && !errors.Is(err, exec.ErrTooManyRows) {
			p.r.fail("pipeline %s: exec replay: %v", opKey(o), err)
			break
		}
		rows += rs.Len()
	}
	sm.add("exec.replay_us", us(tr.end(replay)))
	sm.add("exec.rows_materialized", float64(rows))
	sm.add("exec.rows_per_answer", float64(rows)/float64(max(1, len(tres.Answers))))
	return out, true
}

// spanning wraps a handler so that every request leaves a span; the op is
// read from the X-Request-ID the generator stamps ("op-<n>"), which the
// daemon adopts as its own request ID.
func spanning(tr *tracer, name string, h http.Handler, spanOf *sync.Map) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		opID := -1
		if n, err := strconv.Atoi(strings.TrimPrefix(req.Header.Get("X-Request-ID"), "op-")); err == nil {
			opID = n
		}
		if opID < 0 { // warm-up traffic is not part of the trace
			h.ServeHTTP(w, req)
			return
		}
		id := tr.start(name, -1, opID)
		h.ServeHTTP(w, req)
		tr.end(id)
		spanOf.Store(opID, id)
	})
}

// statz reads a handler's /statz into v.
func statz(h http.Handler, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// serverStatz is the part of gqbed's /statz the traced run reads.
type serverStatz struct {
	Requests  uint64 `json:"requests"`
	Rejected  uint64 `json:"rejected"`
	Timeouts  uint64 `json:"timeouts"`
	Coalesced uint64 `json:"coalesced"`
	Latency   struct {
		P50 float64 `json:"p50_ms"`
	} `json:"latency"`
	Cache struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Evictions   uint64 `json:"evictions"`
		SkippedFast uint64 `json:"skipped_fast"`
	} `json:"cache"`
}

// traceReplay sends the workload's request stream — the same generator, the
// same schedule — over loopback into a server.Server running in this
// process behind a span-recording wrapper, and reads the server's own
// counters from its /statz before and after.
func traceReplay(r *result, tr *tracer, sm samples, w workload, eng *gqbe.Engine, st *stream, ops []op, budget time.Duration) error {
	// The server is swapped for a fresh one between laps of a lib-* pass:
	// with a warm cache a second lap would be a different workload.
	var cur atomic.Pointer[server.Server]
	cur.Store(server.New(eng, server.Config{}))
	var handlerSpan sync.Map
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: spanning(tr, "server.handler",
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { cur.Load().ServeHTTP(w, req) }), &handlerSpan)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close below
	}()
	defer func() {
		hs.Close()
		<-served
	}()

	g := newGenerator(ln.Addr().String(), max(w.OpenConns, runtime.NumCPU()))
	defer g.close()
	g.stampOps = true
	var before, after, delta serverStatz
	accumulate := func() {
		delta.Cache.Hits += after.Cache.Hits - before.Cache.Hits
		delta.Cache.Misses += after.Cache.Misses - before.Cache.Misses
		delta.Cache.Evictions += after.Cache.Evictions - before.Cache.Evictions
		delta.Cache.SkippedFast += after.Cache.SkippedFast - before.Cache.SkippedFast
		delta.Coalesced += after.Coalesced - before.Coalesced
		delta.Rejected += after.Rejected - before.Rejected
		delta.Timeouts += after.Timeouts - before.Timeouts
	}
	var plan []planned
	var recs []record
	var stats phaseStats
	if w.Served {
		if w.Hot {
			if err := warmHot(g, st); err != nil {
				return err
			}
		}
		if err := statz(cur.Load(), &before); err != nil {
			return err
		}
		n := int(w.Rate * budget.Seconds())
		plan = g.plan(st, st.cycleLen(), n)
		due := poissonSchedule(w.Rate, n, rand.New(rand.NewSource(r.Seed^0x5eed)))
		recs, stats = g.open(plan, due)
		if err := statz(cur.Load(), &after); err != nil {
			return err
		}
		accumulate()
	} else {
		for start := time.Now(); time.Since(start) < budget; {
			cur.Store(server.New(eng, server.Config{}))
			base := len(plan)
			for _, o := range ops {
				plan = append(plan, g.frame(o, len(plan)))
			}
			var lap []record
			lap, stats = g.closed(plan[base:], budget-time.Since(start), 0, 1)
			for i := range lap {
				lap[i].idx += base
			}
			recs = append(recs, lap...)
			if err := statz(cur.Load(), &after); err != nil {
				return err
			}
			accumulate()
		}
	}

	late := make([]float64, 0, len(recs))
	for _, rec := range recs {
		r.Attempted++
		if rec.status != http.StatusOK {
			r.fail("replay #%d %s: status %d", rec.idx, opKey(plan[rec.idx].op), rec.status)
			continue
		}
		body := g.bodies[rec.hash]
		client := tr.add("http.request", -1, rec.idx, rec.sent, rec.done.Sub(rec.sent))
		sm.add("server.response_bytes", float64(len(body)))
		late = append(late, ms(rec.late))
		if id, ok := handlerSpan.Load(rec.idx); ok {
			h := id.(int)
			tr.setParent(h, client)
			hs := tr.get(h)
			hdur := time.Duration(hs.End - hs.Start)
			sm.add("http.loopback_us", us(rec.done.Sub(rec.sent)-hdur))
			// The engine's share of the handler, as the response itself
			// reports it; zero for an answer served from the cache.
			var resp server.QueryResponse
			if json.Unmarshal(body, &resp) == nil && !resp.Cached {
				eng := time.Duration((resp.Stats.DiscoveryMS + resp.Stats.MergeMS + resp.Stats.ProcessingMS) * float64(time.Millisecond))
				if eng > hdur {
					eng = hdur
				}
				tr.add("engine.reported", h, rec.idx, tr.t0.Add(time.Duration(hs.End)-eng), eng)
			}
		}
	}
	if look := delta.Cache.Hits + delta.Cache.Misses; look > 0 {
		sm.add("server.cache_hit_share", float64(delta.Cache.Hits)/float64(look))
	}
	sm.add("server.cache_evictions", float64(delta.Cache.Evictions))
	sm.add("server.cache_skipped_fast", float64(delta.Cache.SkippedFast))
	sm.add("server.coalesced", float64(delta.Coalesced))
	sm.add("server.rejected", float64(delta.Rejected))
	sm.add("server.timeouts", float64(delta.Timeouts))
	sm.add("server.search_p50_ms", after.Latency.P50)
	sm.add("gen.sent", float64(len(recs)))
	sm.add("gen.inflight_max", float64(stats.inflightMax))
	if len(late) > 0 {
		sm.add("gen.late_p99_ms", percentile(sortedCopy(late), 99))
	}
	return nil
}

// post builds the in-process request for an op.
func post(o op) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(o.body()))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// traceMicro times the serving layers one call at a time, with no network:
// the exported decode, normalize and cache-key steps, the whole handler on a
// miss and on a hit, and the response encoder.
func traceMicro(r *result, sm samples, eng *gqbe.Engine, ops []op, budget time.Duration) {
	srv := server.New(eng, server.Config{})
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		o := ops[i%len(ops)]
		if i > 0 && i%len(ops) == 0 {
			srv = server.New(eng, server.Config{}) // a fresh cache, so the next lap misses again
		}
		r.Attempted++
		var qr server.QueryRequest
		t0 := time.Now()
		ok := server.DecodeBody(httptest.NewRecorder(), post(o), server.MaxBodyBytes, &qr)
		sm.add("server.decode_us", us(time.Since(t0)))
		if !ok {
			r.fail("micro %s: request body rejected", opKey(o))
			continue
		}
		t0 = time.Now()
		tuples, opts, err := qr.Normalize()
		sm.add("server.normalize_us", us(time.Since(t0)))
		if err != nil {
			r.fail("micro %s: normalize: %v", opKey(o), err)
			continue
		}
		t0 = time.Now()
		_ = server.CacheKey(tuples, opts)
		sm.add("server.cachekey_us", us(time.Since(t0)))

		// The library call and the miss handler for the same op, back to
		// back: their difference is what the serving stack adds to a miss.
		t0 = time.Now()
		if _, err := libQuery(eng, o); err != nil {
			r.fail("micro %s: %v", opKey(o), err)
			continue
		}
		libTook := time.Since(t0)
		rec := httptest.NewRecorder()
		t0 = time.Now()
		srv.ServeHTTP(rec, post(o))
		miss := time.Since(t0)
		if rec.Code != http.StatusOK {
			r.fail("micro %s: status %d", opKey(o), rec.Code)
			continue
		}
		sm.add("server.handler_miss_us", us(miss))
		sm.add("server.overhead_us", us(miss-libTook))

		rec2 := httptest.NewRecorder()
		t0 = time.Now()
		srv.ServeHTTP(rec2, post(o))
		hit := time.Since(t0)
		var resp server.QueryResponse
		if err := json.Unmarshal(rec2.Body.Bytes(), &resp); err != nil {
			r.fail("micro %s: %v", opKey(o), err)
			continue
		}
		if resp.Cached { // searches under the 1 ms admission floor are never cached
			sm.add("server.handler_hit_us", us(hit))
		}
		t0 = time.Now()
		server.WriteJSON(httptest.NewRecorder(), http.StatusOK, &resp)
		sm.add("server.encode_us", us(time.Since(t0)))
	}
}

// inProcess is the router's transport in the traced run: it hands each shard
// call straight to that shard's handler, so router spans hold no network.
type inProcess map[string]http.Handler

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no shard %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// routerStatz is the part of gqberouter's /statz the traced run reads.
type routerStatz struct {
	Requests uint64 `json:"requests"`
	Partial  uint64 `json:"partial"`
	Fanout   uint64 `json:"fanout"`
	Cache    struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
}

// traceRouter sends each op through a router.Router over two in-process
// shard servers, with a span around the router's handler and one around
// every shard handler, and checks the merged answer against the unsharded
// engine's.
func traceRouter(r *result, tr *tracer, sm samples, eng *gqbe.Engine, ops []op, budget time.Duration) error {
	transport := inProcess{}
	var urls []string
	var current, currentOp atomic.Int64 // the router span shard spans hang under; ops run one at a time
	for i := 0; i < fleetShards; i++ {
		sh, err := eng.WithShard(i, fleetShards)
		if err != nil {
			return err
		}
		host := fmt.Sprintf("shard-%d", i)
		srv := server.New(sh, server.Config{})
		transport[host] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			id := tr.start("router.shard", int(current.Load()), int(currentOp.Load()))
			srv.ServeHTTP(w, req)
			tr.end(id)
		})
		urls = append(urls, "http://"+host)
	}
	rt, err := router.New(router.Config{Shards: urls, Client: &http.Client{Transport: transport}})
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < len(ops) && time.Since(start) < budget; i++ {
		o := ops[i]
		r.Attempted++
		want, err := libQuery(eng, o)
		if err != nil {
			r.fail("router %s: %v", opKey(o), err)
			continue
		}
		rec := httptest.NewRecorder()
		id := tr.start("router.handler", -1, i)
		current.Store(int64(id))
		currentOp.Store(int64(i))
		rt.ServeHTTP(rec, post(o))
		took := tr.end(id)
		if rec.Code != http.StatusOK {
			r.fail("router %s: status %d", opKey(o), rec.Code)
			continue
		}
		if err := checkBody(o, rec.Body.Bytes(), want.Answers, true); err != nil {
			r.fail("router %s: merged answer differs from the single node: %v", opKey(o), err)
		}
		var slowest time.Duration
		for sid := id + 1; sid < tr.len(); sid++ {
			if s := tr.get(sid); s.Parent == id {
				slowest = max(slowest, time.Duration(s.End-s.Start))
			}
		}
		sm.add("router.handler_us", us(took))
		sm.add("router.shard_max_us", us(slowest))
		sm.add("router.overhead_us", us(took-slowest))
	}
	var sz routerStatz
	if err := statz(rt, &sz); err != nil {
		return err
	}
	if sz.Requests > 0 {
		sm.add("router.shard_requests_per_query", float64(sz.Fanout)/float64(sz.Requests))
		sm.add("router.partial_share", float64(sz.Partial)/float64(sz.Requests))
	}
	if look := sz.Cache.Hits + sz.Cache.Misses; look > 0 {
		sm.add("router.cache_hit_share", float64(sz.Cache.Hits)/float64(look))
	}
	return nil
}
