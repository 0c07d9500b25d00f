// Package core assembles the full GQBE pipeline of Fig. 3 into one engine:
// offline preprocessing (vertical-partition store, edge statistics), query
// graph discovery (neighborhood extraction, reduction, MQG discovery and
// multi-tuple merging), and query processing (lattice construction and
// best-first top-k search). This is the engine the public gqbe package and
// the experiment harness drive.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
	"gqbe/internal/obs"
	"gqbe/internal/snapio"
	"gqbe/internal/stats"
	"gqbe/internal/storage"
	"gqbe/internal/topk"
)

// Options tunes one query. The zero value uses the paper's settings.
type Options struct {
	// K is the number of answer tuples to return (default 10).
	K int
	// KPrime is the stage-1 pool size (default max(100, 4K); §V-B).
	KPrime int
	// Depth is the neighborhood path-length threshold d (default 2).
	Depth int
	// MQGSize is the MQG edge budget r (default 15, §III-A).
	MQGSize int
	// MaxRows bounds materialized rows per lattice node.
	MaxRows int
	// MaxEvaluations caps evaluated lattice nodes (0 = unlimited).
	MaxEvaluations int
	// Tracer, when non-nil, records per-stage spans (discovery,
	// neighborhood, MQG discovery/merge, lattice build, search) and the
	// per-pop node-evaluation table into the query's trace. Purely
	// observational — results are identical with tracing on or off — and
	// excluded from Normalize, so it never leaks into cache keys.
	Tracer *obs.Tracer
}

func (o *Options) fill() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Depth <= 0 {
		o.Depth = 2
	}
	if o.MQGSize <= 0 {
		o.MQGSize = 15
	}
}

// Normalize returns o with every default made explicit — exactly the values
// Query would run with, including the search-stage defaults (KPrime,
// MaxRows) applied by the top-k layer. Two Options that normalize equal
// describe the same query plan, which is what result-cache keys need.
func (o Options) Normalize() Options {
	o.fill()
	t := topk.Options{K: o.K, KPrime: o.KPrime, MaxRows: o.MaxRows, MaxEvaluations: o.MaxEvaluations}
	t.Fill()
	o.KPrime = t.KPrime
	o.MaxRows = t.MaxRows
	o.Tracer = nil // observational only; never part of the plan identity
	return o
}

// Stats reports where one query spent its time and work, matching the
// quantities §VI breaks out (Table VI, Figs. 14–16).
type Stats struct {
	// Discovery is the time to build the MQG (neighborhood extraction,
	// reduction, Alg. 1). For multi-tuple queries it is the sum over the
	// individual MQGs.
	Discovery time.Duration
	// Merge is the time spent merging MQGs (multi-tuple queries only).
	Merge time.Duration
	// Processing is the lattice search time.
	Processing time.Duration
	// MQGEdges is the edge cardinality of the (merged) MQG.
	MQGEdges int
	// NodesEvaluated / NullNodes / Stopped — the lattice-shape counters
	// NodesGenerated / NodesPruned / FrontierRecomputes, and PeakLiveRows —
	// mirror topk.Result.
	NodesEvaluated     int
	NullNodes          int
	NodesGenerated     int
	NodesPruned        int
	FrontierRecomputes int
	PeakLiveRows       int
	Stopped            topk.StopReason
}

// Result is a ranked answer list plus its query statistics.
type Result struct {
	Answers []topk.Answer
	MQG     *mqg.MQG
	Stats   Stats
}

// BuildInfo reports how an engine's offline phase ran — surfaced on the
// daemon's /statz so operators can see whether a restart paid for a full
// parse+build or a snapshot load.
type BuildInfo struct {
	// Duration is the wall time of the whole offline phase. NewEngine
	// records store+stats construction; loaders that also parse input
	// (gqbe.LoadFile) extend it via SetBuildDuration so the number stays
	// comparable with snapshot loads, which time everything.
	Duration time.Duration
	// FromSnapshot reports whether the engine came from a binary snapshot
	// instead of parsing triples and building indexes.
	FromSnapshot bool
	// Mapped reports whether the snapshot is memory-mapped (zero-copy
	// columns borrowing the mapping) rather than decoded onto the heap.
	Mapped bool
	// MappedBytes is the size of the mapping when Mapped, else 0.
	MappedBytes int64
}

// Engine holds the immutable per-graph state. Building it performs the
// paper's offline steps (hashing the whole graph in memory, precomputing
// label statistics); afterwards it is safe for concurrent queries.
type Engine struct {
	g     *graph.Graph
	store *storage.Store
	stats *stats.Stats
	info  BuildInfo
	// m is the snapshot mapping this engine borrows its columns from
	// (OpenSnapshotMapped), nil for heap-built engines.
	m      *snapio.Map
	closed bool
	// shardIndex/shardCount give the engine a fleet shard identity (see
	// topk.Options.ShardIndex): searches run the identical full trajectory
	// and keep only the answers this shard owns. Zero shardCount (or 1)
	// means unsharded. This is a per-process deployment property, set once
	// at startup via WithShard, never per query — which is why it may live
	// on the engine rather than in Options and why it is excluded from
	// result-cache keys.
	shardIndex int
	shardCount int
}

// NewEngine preprocesses g: it builds the vertical-partition store and the
// label statistics over it.
func NewEngine(g *graph.Graph) *Engine {
	start := time.Now()
	store := storage.Build(g)
	e := &Engine{g: g, store: store, stats: stats.New(store)}
	e.info = BuildInfo{Duration: time.Since(start)}
	return e
}

// Info reports how the engine's offline phase ran.
func (e *Engine) Info() BuildInfo { return e.info }

// Mapped reports whether the engine borrows a live snapshot mapping.
func (e *Engine) Mapped() bool { return e.m != nil }

// Closed reports whether Close has run.
func (e *Engine) Closed() bool { return e.closed }

// Close releases the snapshot mapping backing a mapped engine (no-op for
// heap engines). Idempotent. The caller must guarantee no query is in
// flight: after Close every borrowed column and name string dangles, and
// touching one faults. The server's generation refcounting (internal/server)
// delays this call until the last in-flight request on the old generation
// drains.
func (e *Engine) Close() error {
	if e == nil || e.closed {
		return nil
	}
	e.closed = true
	if e.m == nil {
		return nil
	}
	m := e.m
	e.m = nil
	return m.Close()
}

// WithShard returns a shallow copy of e that answers queries as shard index
// of a count-shard fleet: the copy shares the graph, store and statistics
// (no data is duplicated) but its searches keep only answers whose pivot
// entity hashes to index (topk.OwnerShard). count <= 1 returns an unsharded
// copy. The copy shares the original's mapping lifetime — Close either one
// and both dangle — so a process should close only the engine it serves.
func (e *Engine) WithShard(index, count int) (*Engine, error) {
	if count <= 1 {
		index, count = 0, 0
	} else if index < 0 || index >= count {
		return nil, fmt.Errorf("core: shard index %d outside fleet of %d", index, count)
	}
	c := *e
	c.shardIndex, c.shardCount = index, count
	return &c, nil
}

// Shard reports the engine's fleet shard identity; count is 0 for an
// unsharded engine.
func (e *Engine) Shard() (index, count int) { return e.shardIndex, e.shardCount }

// SetBuildDuration widens the recorded offline-phase duration to d — for
// loaders whose work starts before NewEngine (parsing triples,
// interning names). Call once, right after construction.
func (e *Engine) SetBuildDuration(d time.Duration) { e.info.Duration = d }

// Graph returns the underlying data graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Store returns the vertical-partition store (for baselines and benches).
func (e *Engine) Store() *storage.Store { return e.store }

// DiscoverMQGCtx runs query graph discovery for one tuple — neighborhood
// extraction, reduction, and Alg. 1 — with ctx checked between the
// discovery phases.
func (e *Engine) DiscoverMQGCtx(ctx context.Context, tuple []graph.NodeID, opts Options) (*mqg.MQG, error) {
	opts.fill()
	tr := opts.Tracer
	nsp := tr.Start("neighborhood")
	nres, err := neighborhood.ExtractCtx(ctx, e.g, tuple, opts.Depth)
	nsp.End()
	if err != nil {
		return nil, err
	}
	// The BFS distance table is only needed during discovery; recycle it so
	// concurrent serving reuses a few tables instead of allocating
	// two NumNodes-sized arrays per query.
	defer nres.Release()
	msp := tr.Start("mqg.discover")
	m, err := mqg.DiscoverCtx(ctx, e.stats, nres.Reduced, tuple, opts.MQGSize)
	if err != nil {
		msp.End()
		return nil, err
	}
	msp.SetAttr("mqg_edges", int64(len(m.Sub.Edges)))
	msp.End()
	return m, nil
}

// Lattice builds the query lattice for a discovered MQG; ctx bounds the
// minimal-tree enumeration (see lattice.NewCtx).
func (e *Engine) Lattice(ctx context.Context, m *mqg.MQG) (*lattice.Lattice, error) {
	return lattice.NewCtx(ctx, m)
}

// QueryCtx answers a single-tuple query end to end. Every pipeline phase —
// discovery, lattice construction, and the best-first search with its hash
// joins — observes ctx, so a canceled or expired context aborts the query
// promptly with the context's error. An interruption that strikes inside the
// search loop returns the partial Result alongside the error (its
// Stats.Stopped carries the deadline/canceled disposition); earlier phases
// have no partial state, so they return a nil Result as before.
func (e *Engine) QueryCtx(ctx context.Context, tuple []graph.NodeID, opts Options) (*Result, error) {
	opts.fill()
	start := time.Now()
	dsp := opts.Tracer.Start("discovery")
	m, err := e.DiscoverMQGCtx(ctx, tuple, opts)
	dsp.End()
	if err != nil {
		return nil, fmt.Errorf("core: query graph discovery: %w", err)
	}
	discovery := time.Since(start)
	res, err := e.searchMQG(ctx, m, [][]graph.NodeID{tuple}, opts)
	if res != nil {
		res.Stats.Discovery = discovery
	}
	return res, err
}

// QueryMultiCtx answers a multi-tuple query (§III-D): individual MQGs are
// discovered per tuple, merged and re-weighted, and the merged MQG is
// processed like a single-tuple query. Cancellation behaves as in QueryCtx.
func (e *Engine) QueryMultiCtx(ctx context.Context, tuples [][]graph.NodeID, opts Options) (*Result, error) {
	opts.fill()
	if len(tuples) == 0 {
		return nil, errors.New("core: no query tuples")
	}
	if len(tuples) == 1 {
		return e.QueryCtx(ctx, tuples[0], opts)
	}
	var discovery time.Duration
	mqgs := make([]*mqg.MQG, 0, len(tuples))
	for i, t := range tuples {
		start := time.Now()
		dsp := opts.Tracer.Start("discovery")
		dsp.SetAttr("tuple", int64(i))
		m, err := e.DiscoverMQGCtx(ctx, t, opts)
		dsp.End()
		discovery += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("core: query graph discovery: %w", err)
		}
		mqgs = append(mqgs, m)
	}
	start := time.Now()
	msp := opts.Tracer.Start("mqg.merge")
	merged, err := mqg.MergeCtx(ctx, mqgs, opts.MQGSize)
	msp.End()
	mergeTime := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("core: merging MQGs: %w", err)
	}
	res, err := e.searchMQG(ctx, merged, tuples, opts)
	if res != nil {
		res.Stats.Discovery = discovery
		res.Stats.Merge = mergeTime
	}
	return res, err
}

// searchMQG builds the lattice and runs the best-first search. A search
// interrupted by ctx returns its partial Result together with the wrapped
// error (see topk.SearchCtx).
func (e *Engine) searchMQG(ctx context.Context, m *mqg.MQG, exclude [][]graph.NodeID, opts Options) (*Result, error) {
	tr := opts.Tracer
	lsp := tr.Start("lattice.build")
	lat, err := lattice.NewCtx(ctx, m)
	if err != nil {
		lsp.End()
		return nil, fmt.Errorf("core: building query lattice: %w", err)
	}
	lsp.SetAttr("mqg_edges", int64(len(m.Sub.Edges)))
	lsp.SetAttr("minimal_trees", int64(len(lat.MinimalTrees())))
	lsp.End()
	start := time.Now()
	ssp := tr.Start("search")
	tres, err := topk.SearchCtx(ctx, e.store, lat, exclude, topk.Options{
		K:              opts.K,
		KPrime:         opts.KPrime,
		MaxRows:        opts.MaxRows,
		MaxEvaluations: opts.MaxEvaluations,
		Tracer:         tr,
		ShardIndex:     e.shardIndex,
		ShardCount:     e.shardCount,
	})
	ssp.End()
	if tres == nil {
		return nil, fmt.Errorf("core: lattice search: %w", err)
	}
	res := &Result{
		Answers: tres.Answers,
		MQG:     m,
		Stats: Stats{
			Processing:         time.Since(start),
			MQGEdges:           len(m.Sub.Edges),
			NodesEvaluated:     tres.NodesEvaluated,
			NullNodes:          tres.NullNodes,
			NodesGenerated:     tres.NodesGenerated,
			NodesPruned:        tres.NodesPruned,
			FrontierRecomputes: tres.FrontierRecomputes,
			PeakLiveRows:       tres.PeakLiveRows,
			Stopped:            tres.Stopped,
		},
	}
	if err != nil {
		return res, fmt.Errorf("core: lattice search: %w", err)
	}
	return res, nil
}

// AnswerNames renders an answer tuple as entity names. For mapped engines
// the graph's name strings alias the snapshot mapping, so they are cloned
// here: answers routinely outlive the request (HTTP encoding, caches), and
// a hot reload may unmap the old generation in between.
func (e *Engine) AnswerNames(a topk.Answer) []string {
	borrowed := e.g.Borrowed()
	out := make([]string, len(a.Tuple))
	for i, v := range a.Tuple {
		name := e.g.Name(v)
		if borrowed {
			name = strings.Clone(name)
		}
		out[i] = name
	}
	return out
}
