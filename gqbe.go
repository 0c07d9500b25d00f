// Package gqbe is a Go implementation of GQBE — Graph Query By Example
// (Jayaram, Khan, Li, Yan, Elmasri: "Querying Knowledge Graphs by Example
// Entity Tuples", ICDE / arXiv:1311.2100).
//
// GQBE answers queries over a knowledge graph from nothing but an example
// entity tuple. Given ⟨Jerry Yang, Yahoo!⟩ over a graph of people and
// companies, it returns ranked tuples whose entities participate in similar
// relationships — ⟨Steve Wozniak, Apple Inc.⟩, ⟨Sergey Brin, Google⟩ — with
// no query language, schema knowledge, or query graph required.
//
// Basic use:
//
//	eng, err := gqbe.LoadFile("kg.tsv") // tab-separated subject/predicate/object
//	res, err := eng.Query([]string{"Jerry Yang", "Yahoo!"}, nil)
//	for _, a := range res.Answers {
//	    fmt.Println(a.Entities, a.Score)
//	}
//
// Multiple example tuples sharpen the intent (§III-D of the paper):
//
//	res, err := eng.QueryMulti([][]string{
//	    {"Jerry Yang", "Yahoo!"},
//	    {"Steve Wozniak", "Apple Inc."},
//	}, nil)
//
// The pipeline mirrors the paper: the engine derives a weighted maximal
// query graph capturing the tuple's important relationships, models the
// space of approximate matches as a query lattice, and explores the lattice
// best-first, evaluating query graphs as hash joins and stopping as soon as
// the top-k answers are provably found.
package gqbe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"gqbe/internal/core"
	"gqbe/internal/graph"
	"gqbe/internal/topk"
	"gqbe/internal/triples"
)

// ErrUnknownEntity is wrapped by query errors when a query tuple names an
// entity absent from the knowledge graph; test with errors.Is.
var ErrUnknownEntity = errors.New("unknown entity")

// Options tunes a query. Nil or zero fields select the paper's defaults.
type Options struct {
	// K is the number of answers to return (default 10).
	K int
	// KPrime is the candidate pool ranked by structure score before the
	// final content-aware re-ranking (default max(100, 4K); §V-B of the
	// paper found k′≈100 best for k in 10..25).
	KPrime int
	// Depth is the neighborhood radius d in edges (default 2).
	Depth int
	// MQGSize is the maximal-query-graph edge budget r (default 15).
	MQGSize int
	// MaxRows bounds the intermediate join size per query graph; query
	// graphs exceeding it are skipped rather than exhaust memory, and
	// Stats.Stopped says "row-budget" when a skip could have changed the
	// answers (default 5M rows).
	MaxRows int
	// MaxEvaluations caps evaluated lattice nodes (default unlimited).
	MaxEvaluations int
	// Tracer, when non-nil, records the query's per-stage span tree and the
	// search's per-node evaluation table (see NewTracer), and populates
	// Result.MQG. Tracing never changes answers or Stats, and it is
	// excluded from Normalized — a traced query has the same cache identity
	// as an untraced one.
	Tracer *Tracer
}

// Normalized returns a copy of o with the engine's defaults made explicit —
// the exact values a query with these options runs with. Nil receives all
// defaults. Two Options that normalize equal describe the same query, which
// makes the normalized form a sound result-cache key component.
func (o *Options) Normalized() Options {
	c := o.toCore().Normalize()
	return Options{
		K:              c.K,
		KPrime:         c.KPrime,
		Depth:          c.Depth,
		MQGSize:        c.MQGSize,
		MaxRows:        c.MaxRows,
		MaxEvaluations: c.MaxEvaluations,
	}
}

func (o *Options) toCore() core.Options {
	if o == nil {
		return core.Options{}
	}
	return core.Options{
		K:              o.K,
		KPrime:         o.KPrime,
		Depth:          o.Depth,
		MQGSize:        o.MQGSize,
		MaxRows:        o.MaxRows,
		MaxEvaluations: o.MaxEvaluations,
		Tracer:         o.Tracer,
	}
}

// Answer is one ranked answer tuple.
type Answer struct {
	// Entities are the answer's entity names, positionally matching the
	// query tuple.
	Entities []string
	// Score is the answer's similarity score (Eq. 1/5 of the paper);
	// higher is better. Scores are comparable within one result only.
	Score float64
	// Key is the answer's deterministic tie-break key (the tuple's node IDs
	// in decimal, comma-joined). Equal-score answers are ordered by Key
	// ascending, so re-merging ranked lists from engines built from the same
	// input — a shard fleet — under (Score desc, Key asc) reproduces the
	// single-engine order exactly. Keys are comparable only between engines
	// built from the same input.
	Key string
}

// Stats reports how a query was executed.
type Stats struct {
	// Discovery is the time spent deriving the maximal query graph(s).
	Discovery time.Duration
	// Merge is the time spent merging MQGs (multi-tuple queries only).
	Merge time.Duration
	// Processing is the time spent searching the query lattice.
	Processing time.Duration
	// MQGEdges is the size of the derived (merged) maximal query graph.
	MQGEdges int
	// NodesEvaluated is the number of lattice query graphs evaluated.
	NodesEvaluated int
	// NullNodes is the number of evaluated query graphs with no answers
	// (each one triggers the lattice pruning of Alg. 3).
	NullNodes int
	// NodesGenerated is the number of distinct lattice nodes the search
	// ever admitted as candidates.
	NodesGenerated int
	// NodesPruned is the number of candidates discarded unevaluated because
	// a null node subsumed them.
	NodesPruned int
	// FrontierRecomputes is the number of upper-frontier recomputations
	// (Alg. 3) the search performed.
	FrontierRecomputes int
	// PeakLiveRows is the most materialized answer rows the search held at
	// once — its memory footprint in rows, each one slot per MQG node.
	PeakLiveRows int
	// Stopped says why the lattice search returned: "topk-proven" (the
	// top-k answers were provably final), "frontier-exhausted" (the whole
	// reachable lattice was explored), "row-budget" (a query graph skipped
	// for exceeding MaxRows could hold better answers than those returned),
	// "max-evaluations" (the MaxEvaluations safety valve fired), or — for
	// interrupted queries that still produced a partial result — "deadline"
	// or "canceled".
	Stopped string
	// Terminated reports whether the top-k proof stopped the search early.
	Terminated bool
}

// Result is a ranked answer list.
type Result struct {
	Answers []Answer
	Stats   Stats
	// MQG is a display rendering of the derived maximal query graph.
	// Populated only for traced queries (Options.Tracer non-nil); untraced
	// serving-path queries skip the rendering cost.
	MQG *MQGInfo
}

// Engine answers query-by-example queries over one immutable knowledge
// graph. It is safe for concurrent use once built.
type Engine struct {
	eng *core.Engine
}

// Load reads a knowledge graph from tab-separated triples
// (subject\tpredicate\tobject per line, '#' comments allowed) and
// preprocesses it for querying.
func Load(r io.Reader) (*Engine, error) {
	start := time.Now()
	g, err := triples.LoadGraph(r)
	if err != nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	return fromGraphTimed(g, start)
}

// LoadFile is Load over a file path.
func LoadFile(path string) (*Engine, error) {
	start := time.Now()
	g, err := triples.LoadGraphFile(path)
	if err != nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	return fromGraphTimed(g, start)
}

// LoadSnapshotFile restores a preprocessed engine from a binary snapshot
// written by WriteSnapshotFile, skipping triple parsing and index
// construction entirely. Corrupt or incompatible snapshots fail with a
// typed error (never a panic); callers typically fall back to LoadFile.
func LoadSnapshotFile(path string) (*Engine, error) {
	eng, err := core.LoadSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	return &Engine{eng: eng}, nil
}

// OpenSnapshotMapped restores a preprocessed engine by memory-mapping the
// snapshot file instead of decoding it onto the heap: the graph's name blob
// and every index column become zero-copy views of the mapping. Opening is
// O(sections) — on large graphs typically an order of magnitude faster than
// LoadSnapshotFile and dramatically faster than re-parsing triples — and the
// data pages are shared with the OS page cache, so multiple processes
// serving the same snapshot pay its memory cost once.
//
// Integrity matches LoadSnapshotFile: the file's CRC-32C trailer is
// verified before the engine is returned, and corruption fails with a typed
// error, never a panic. On platforms without mmap support the open fails
// (callers fall back to LoadSnapshotFile).
//
// A mapped engine holds the file mapping until Close. Answers and traced
// MQG renderings are safe to retain after Close — strings that would alias
// the mapping are cloned at the API boundary.
func OpenSnapshotMapped(path string) (*Engine, error) {
	eng, err := core.OpenSnapshotMapped(path)
	if err != nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	return &Engine{eng: eng}, nil
}

// Close releases the snapshot mapping backing an engine from
// OpenSnapshotMapped; for heap-built engines it is a no-op. Idempotent.
// After Close the engine must not serve queries — every borrowed column
// dangles. Callers that hot-swap engines must drain in-flight queries on
// the old engine first (the bundled server does this with per-generation
// reference counts).
func (e *Engine) Close() error {
	if err := e.eng.Close(); err != nil {
		return fmt.Errorf("gqbe: %w", err)
	}
	return nil
}

// Closed reports whether Close has been called on this engine.
func (e *Engine) Closed() bool { return e.eng.Closed() }

// Mapped reports whether this engine borrows a live snapshot mapping
// (OpenSnapshotMapped) rather than owning heap-decoded state.
func (e *Engine) Mapped() bool { return e.eng.Mapped() }

// WriteSnapshotFile serializes the engine's preprocessed state (graph and
// indexed store) to path as a versioned, checksummed binary snapshot,
// written atomically (temp file + rename). Regenerate the snapshot whenever
// the source triples change; the daemon's -snapshot-write flag automates
// this.
func (e *Engine) WriteSnapshotFile(path string) error {
	if err := e.eng.WriteSnapshotFile(path); err != nil {
		return fmt.Errorf("gqbe: %w", err)
	}
	return nil
}

// WriteSnapshot is WriteSnapshotFile over an io.Writer.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	if err := e.eng.WriteSnapshot(w); err != nil {
		return fmt.Errorf("gqbe: %w", err)
	}
	return nil
}

// LoadSnapshot is LoadSnapshotFile over an io.Reader.
func LoadSnapshot(r io.Reader) (*Engine, error) {
	eng, err := core.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	return &Engine{eng: eng}, nil
}

// BuildInfo reports how an engine's offline preprocessing ran.
type BuildInfo struct {
	// BuildTime is the wall time of preprocessing (for snapshot engines,
	// the snapshot load).
	BuildTime time.Duration
	// FromSnapshot reports whether the engine was restored from a binary
	// snapshot rather than built from triples.
	FromSnapshot bool
	// Mapped reports whether the snapshot is memory-mapped zero-copy
	// (OpenSnapshotMapped) rather than decoded onto the heap.
	Mapped bool
	// MappedBytes is the size of the snapshot mapping when Mapped, else 0.
	MappedBytes int64
}

// BuildInfo reports how this engine's offline preprocessing ran.
func (e *Engine) BuildInfo() BuildInfo {
	info := e.eng.Info()
	return BuildInfo{
		BuildTime:    info.Duration,
		FromSnapshot: info.FromSnapshot,
		Mapped:       info.Mapped,
		MappedBytes:  info.MappedBytes,
	}
}

// Builder assembles a knowledge graph triple by triple, for programmatic
// construction instead of file loading.
type Builder struct {
	g    *graph.Graph
	done bool
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return &Builder{g: graph.New()} }

// Add inserts the triple (subject, predicate, object); duplicates are
// ignored. Add panics if called after Build.
func (b *Builder) Add(subject, predicate, object string) *Builder {
	if b.done {
		panic("gqbe: Builder used after Build")
	}
	b.g.AddEdge(subject, predicate, object)
	return b
}

// Build finalizes the graph and preprocesses the engine. The builder must
// not be reused.
func (b *Builder) Build() (*Engine, error) {
	if b.done {
		return nil, errors.New("gqbe: Builder already built")
	}
	b.done = true
	start := time.Now()
	b.g.SortAdjacency()
	return fromGraphTimed(b.g, start)
}

// fromGraphTimed preprocesses g with the recorded build time widened to
// start at `start` — the loaders pass their pre-parse timestamp so
// BuildTime covers parse + intern + sort + build, staying comparable with
// snapshot loads (which time everything they do).
func fromGraphTimed(g *graph.Graph, start time.Time) (*Engine, error) {
	if g.NumEdges() == 0 {
		return nil, errors.New("gqbe: empty knowledge graph")
	}
	eng := core.NewEngine(g)
	eng.SetBuildDuration(time.Since(start))
	return &Engine{eng: eng}, nil
}

// NumEntities returns the number of entity nodes in the graph.
func (e *Engine) NumEntities() int { return e.eng.Graph().NumNodes() }

// NumFacts returns the number of edges (triples) in the graph.
func (e *Engine) NumFacts() int { return e.eng.Graph().NumEdges() }

// NumPredicates returns the number of distinct edge labels.
func (e *Engine) NumPredicates() int { return e.eng.Graph().NumLabels() }

// HasEntity reports whether an entity name exists in the graph.
func (e *Engine) HasEntity(name string) bool {
	_, ok := e.eng.Graph().Node(name)
	return ok
}

// Query answers a single example-tuple query: entities names the example
// entities (1–3 is typical), and the result holds the top-k most similar
// answer tuples, best first. The example tuple itself is never returned.
func (e *Engine) Query(entities []string, opts *Options) (*Result, error) {
	return e.QueryCtx(context.Background(), entities, opts)
}

// QueryCtx is Query under a context. The entire pipeline — query graph
// discovery, lattice construction, and the best-first search with its hash
// joins — observes ctx, so callers can bound a query with a deadline or
// cancel a runaway search; the query then fails with an error wrapping
// ctx.Err() (context.DeadlineExceeded or context.Canceled). When the
// interruption strikes inside the lattice search, the error is accompanied
// by a non-nil partial Result — the answers found so far, with Stats.Stopped
// set to "deadline" or "canceled" — so anytime consumers can use both.
func (e *Engine) QueryCtx(ctx context.Context, entities []string, opts *Options) (*Result, error) {
	tuple, err := e.resolve(entities)
	if err != nil {
		return nil, err
	}
	res, err := e.eng.QueryCtx(ctx, tuple, opts.toCore())
	if res == nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	out := e.wrap(res, opts != nil && opts.Tracer != nil)
	if err != nil {
		return out, fmt.Errorf("gqbe: %w", err)
	}
	return out, nil
}

// QueryMulti answers a multi-tuple query: all example tuples (same arity)
// are combined into one merged query intent, which usually sharpens results
// (§III-D, Table V of the paper).
func (e *Engine) QueryMulti(tuples [][]string, opts *Options) (*Result, error) {
	return e.QueryMultiCtx(context.Background(), tuples, opts)
}

// QueryMultiCtx is QueryMulti under a context, with the same cancellation
// semantics as QueryCtx.
func (e *Engine) QueryMultiCtx(ctx context.Context, tuples [][]string, opts *Options) (*Result, error) {
	if len(tuples) == 0 {
		return nil, errors.New("gqbe: no query tuples")
	}
	resolved := make([][]graph.NodeID, len(tuples))
	for i, t := range tuples {
		tuple, err := e.resolve(t)
		if err != nil {
			return nil, err
		}
		resolved[i] = tuple
	}
	res, err := e.eng.QueryMultiCtx(ctx, resolved, opts.toCore())
	if res == nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	out := e.wrap(res, opts != nil && opts.Tracer != nil)
	if err != nil {
		return out, fmt.Errorf("gqbe: %w", err)
	}
	return out, nil
}

func (e *Engine) resolve(entities []string) ([]graph.NodeID, error) {
	if len(entities) == 0 {
		return nil, errors.New("gqbe: empty query tuple")
	}
	tuple := make([]graph.NodeID, len(entities))
	for i, name := range entities {
		id, ok := e.eng.Graph().Node(name)
		if !ok {
			return nil, fmt.Errorf("gqbe: %w %q", ErrUnknownEntity, name)
		}
		tuple[i] = id
	}
	return tuple, nil
}

func (e *Engine) wrap(res *core.Result, withMQG bool) *Result {
	out := &Result{
		Stats: Stats{
			Discovery:          res.Stats.Discovery,
			Merge:              res.Stats.Merge,
			Processing:         res.Stats.Processing,
			MQGEdges:           res.Stats.MQGEdges,
			NodesEvaluated:     res.Stats.NodesEvaluated,
			NullNodes:          res.Stats.NullNodes,
			NodesGenerated:     res.Stats.NodesGenerated,
			NodesPruned:        res.Stats.NodesPruned,
			FrontierRecomputes: res.Stats.FrontierRecomputes,
			PeakLiveRows:       res.Stats.PeakLiveRows,
			Stopped:            string(res.Stats.Stopped),
			// Terminated is derived here, once: the engine layers carry only
			// the Stopped reason.
			Terminated: res.Stats.Stopped == topk.StopProven,
		},
	}
	if withMQG && res.MQG != nil {
		out.MQG = e.mqgInfo(res.MQG)
	}
	for _, a := range res.Answers {
		out.Answers = append(out.Answers, Answer{
			Entities: e.eng.AnswerNames(a),
			Score:    a.Score,
			Key:      topk.TupleKey(a.Tuple),
		})
	}
	return out
}

// WithShard returns a copy of the engine that answers as shard index of a
// count-shard fleet. The copy shares all graph data (nothing is duplicated);
// its queries run the identical search but return only the answers whose
// pivot entity this shard owns, so a fleet of count such engines — one per
// index — partitions every result list, and merging the per-shard lists
// under (Score desc, Key asc) reproduces the unsharded ranking bit for bit.
// count <= 1 returns an unsharded copy; an index outside [0, count) errors.
// Shard identity is a deployment property, never a per-query knob.
func (e *Engine) WithShard(index, count int) (*Engine, error) {
	eng, err := e.eng.WithShard(index, count)
	if err != nil {
		return nil, fmt.Errorf("gqbe: %w", err)
	}
	return &Engine{eng: eng}, nil
}

// Shard reports the engine's fleet shard identity; count is 0 for an
// unsharded engine. Engines loaded from a shard snapshot (cmd/kgshard)
// carry the identity recorded in the file.
func (e *Engine) Shard() (index, count int) { return e.eng.Shard() }
