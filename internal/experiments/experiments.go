// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI) over the synthetic Freebase-like and DBpedia-like
// datasets. Each experiment has a driver method on Suite returning a
// structured result with a Render method that prints a paper-style table.
//
// Protocol, following §VI: for each workload query, row 0 of its
// ground-truth table is the query tuple and the remaining rows are the
// ground truth; NESS receives the MQG discovered by GQBE as its query
// graph; accuracy is measured with P@k, MAP and nDCG; the user study is
// simulated (the internal/userstudy package doc describes how).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gqbe/internal/baseline"
	"gqbe/internal/core"
	"gqbe/internal/graph"
	"gqbe/internal/kgsynth"
	"gqbe/internal/mqg"
	"gqbe/internal/ness"
)

// Params fixes the run-wide knobs. Defaults follow the paper where it
// states them (d=2, k′=100) and use r=12 as the MQG budget (the paper's
// per-query MQGs in Fig. 14 have 7–13 edges for all but one query).
type Params struct {
	Depth    int
	MQGSize  int
	KPrime   int
	TopK     int // answers kept per cached run (Table IV needs 30)
	MaxEvals int // lattice-evaluation cap per run (safety valve)
	// MaxRows bounds the intermediate join size per lattice node. The
	// harness uses a budget far below the library default so that
	// blow-up nodes (the paper's F4/F19 pathology) are detected and
	// skipped in milliseconds instead of seconds.
	MaxRows int
}

func (p *Params) fill() {
	if p.Depth <= 0 {
		p.Depth = 2
	}
	if p.MQGSize <= 0 {
		p.MQGSize = 15
	}
	if p.KPrime <= 0 {
		p.KPrime = 100
	}
	if p.TopK <= 0 {
		p.TopK = 30
	}
	if p.MaxEvals <= 0 {
		p.MaxEvals = 4000
	}
	if p.MaxRows <= 0 {
		p.MaxRows = 400_000
	}
}

// Suite holds the datasets, engines and memoized per-query runs.
type Suite struct {
	Params Params
	FB     *kgsynth.Dataset
	DB     *kgsynth.Dataset
	EngFB  *core.Engine
	EngDB  *core.Engine

	gqbeRuns     map[string]*gqbeRun
	nessRuns     map[string]*nessRun
	baselineRuns map[string]*baselineRun
}

// NewSuite generates both datasets and preprocesses both engines.
func NewSuite(cfg kgsynth.Config, params Params) *Suite {
	params.fill()
	fb := kgsynth.Freebase(cfg)
	db := kgsynth.DBpedia(cfg)
	return &Suite{
		Params:       params,
		FB:           fb,
		DB:           db,
		EngFB:        core.NewEngine(fb.Graph),
		EngDB:        core.NewEngine(db.Graph),
		gqbeRuns:     make(map[string]*gqbeRun),
		nessRuns:     make(map[string]*nessRun),
		baselineRuns: make(map[string]*baselineRun),
	}
}

// ResetCache discards all memoized per-query runs, so benchmarks can time
// repeated executions instead of cache hits. The datasets and engines
// (offline state) are kept.
func (s *Suite) ResetCache() {
	s.gqbeRuns = make(map[string]*gqbeRun)
	s.nessRuns = make(map[string]*nessRun)
	s.baselineRuns = make(map[string]*baselineRun)
}

// dsFor returns the dataset and engine owning a query ID (F* or D*).
func (s *Suite) dsFor(id string) (*kgsynth.Dataset, *core.Engine) {
	if strings.HasPrefix(id, "D") {
		return s.DB, s.EngDB
	}
	return s.FB, s.EngFB
}

// key joins an answer tuple's entity names for ground-truth comparison.
func key(names []string) string { return strings.Join(names, " | ") }

// truthSet builds the ground-truth key set of a query, skipping the first
// usedTuples rows (those consumed as query tuples).
func truthSet(q *kgsynth.Query, usedTuples int) map[string]bool {
	t := make(map[string]bool)
	for _, row := range q.GroundTruth(usedTuples) {
		t[key(row)] = true
	}
	return t
}

// gqbeRun is one memoized GQBE execution.
type gqbeRun struct {
	Answers []string         // ranked answer keys
	Tuples  [][]graph.NodeID // ranked answer tuples, same order
	Scores  []float64        // final scores, same order
	Stats   core.Stats
	MQG     *mqg.MQG
	Err     error
}

// coreOpts builds the engine options for this suite.
func (s *Suite) coreOpts() core.Options {
	return core.Options{
		K:              s.Params.TopK,
		KPrime:         s.Params.KPrime,
		Depth:          s.Params.Depth,
		MQGSize:        s.Params.MQGSize,
		MaxRows:        s.Params.MaxRows,
		MaxEvaluations: s.Params.MaxEvals,
	}
}

// runGQBE executes (or recalls) GQBE on query id with the first nTuples
// table rows as the (multi-)query tuple.
func (s *Suite) runGQBE(id string, nTuples int) *gqbeRun {
	ck := fmt.Sprintf("%s/%d", id, nTuples)
	if r, ok := s.gqbeRuns[ck]; ok {
		return r
	}
	ds, eng := s.dsFor(id)
	q := ds.MustQuery(id)
	run := &gqbeRun{}
	tuples := make([][]graph.NodeID, 0, nTuples)
	for i := 0; i < nTuples && i < len(q.Table); i++ {
		t, err := ds.Tuple(q.Table[i])
		if err != nil {
			run.Err = err
			s.gqbeRuns[ck] = run
			return run
		}
		tuples = append(tuples, t)
	}
	var res *core.Result
	var err error
	if len(tuples) == 1 {
		res, err = eng.QueryCtx(context.Background(), tuples[0], s.coreOpts())
	} else {
		res, err = eng.QueryMultiCtx(context.Background(), tuples, s.coreOpts())
	}
	if err != nil {
		run.Err = err
		s.gqbeRuns[ck] = run
		return run
	}
	run.Stats = res.Stats
	run.MQG = res.MQG
	for _, a := range res.Answers {
		run.Answers = append(run.Answers, key(eng.AnswerNames(a)))
		run.Tuples = append(run.Tuples, a.Tuple)
		run.Scores = append(run.Scores, a.Score)
	}
	s.gqbeRuns[ck] = run
	return run
}

// runGQBEWithTupleIndex runs GQBE with a single query tuple taken from the
// given table row (for Table V's Tuple2/Tuple3 columns).
func (s *Suite) runGQBEWithTupleIndex(id string, row int) *gqbeRun {
	ck := fmt.Sprintf("%s/row%d", id, row)
	if r, ok := s.gqbeRuns[ck]; ok {
		return r
	}
	ds, eng := s.dsFor(id)
	q := ds.MustQuery(id)
	run := &gqbeRun{}
	if row >= len(q.Table) {
		run.Err = fmt.Errorf("experiments: query %s has no row %d", id, row)
		s.gqbeRuns[ck] = run
		return run
	}
	tuple, err := ds.Tuple(q.Table[row])
	if err != nil {
		run.Err = err
		s.gqbeRuns[ck] = run
		return run
	}
	res, err := eng.QueryCtx(context.Background(), tuple, s.coreOpts())
	if err != nil {
		run.Err = err
		s.gqbeRuns[ck] = run
		return run
	}
	run.Stats = res.Stats
	run.MQG = res.MQG
	for _, a := range res.Answers {
		run.Answers = append(run.Answers, key(eng.AnswerNames(a)))
		run.Tuples = append(run.Tuples, a.Tuple)
		run.Scores = append(run.Scores, a.Score)
	}
	s.gqbeRuns[ck] = run
	return run
}

// nessRun is one memoized NESS execution. NESS receives the MQG discovered
// by GQBE, exactly as in §VI.
type nessRun struct {
	Answers []string
	Elapsed time.Duration
	Err     error
}

func (s *Suite) runNESS(id string) *nessRun {
	if r, ok := s.nessRuns[id]; ok {
		return r
	}
	ds, eng := s.dsFor(id)
	q := ds.MustQuery(id)
	run := &nessRun{}
	g := s.runGQBE(id, 1)
	if g.Err != nil {
		run.Err = g.Err
		s.nessRuns[id] = run
		return run
	}
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		run.Err = err
		s.nessRuns[id] = run
		return run
	}
	start := time.Now()
	res, err := ness.Search(ds.Graph, eng.Store(), g.MQG, [][]graph.NodeID{tuple}, ness.Options{K: s.Params.TopK})
	run.Elapsed = time.Since(start)
	if err != nil {
		run.Err = err
		s.nessRuns[id] = run
		return run
	}
	for _, a := range res.Answers {
		names := make([]string, len(a.Tuple))
		for i, v := range a.Tuple {
			names[i] = ds.Graph.Name(v)
		}
		run.Answers = append(run.Answers, key(names))
	}
	s.nessRuns[id] = run
	return run
}

// baselineRun is one memoized Baseline execution over the same lattice.
type baselineRun struct {
	Elapsed        time.Duration
	NodesEvaluated int
	Truncated      bool
	Err            error
}

func (s *Suite) runBaseline(id string) *baselineRun {
	if r, ok := s.baselineRuns[id]; ok {
		return r
	}
	ds, eng := s.dsFor(id)
	q := ds.MustQuery(id)
	run := &baselineRun{}
	g := s.runGQBE(id, 1)
	if g.Err != nil {
		run.Err = g.Err
		s.baselineRuns[id] = run
		return run
	}
	tuple, err := ds.Tuple(q.QueryTuple())
	if err != nil {
		run.Err = err
		s.baselineRuns[id] = run
		return run
	}
	lat, err := eng.Lattice(context.Background(), g.MQG)
	if err != nil {
		run.Err = err
		s.baselineRuns[id] = run
		return run
	}
	start := time.Now()
	res, err := baseline.Search(eng.Store(), lat, [][]graph.NodeID{tuple}, baseline.Options{
		K:              s.Params.TopK,
		KPrime:         s.Params.KPrime,
		MaxRows:        s.Params.MaxRows,
		MaxEvaluations: s.Params.MaxEvals,
	})
	run.Elapsed = time.Since(start)
	if err != nil {
		run.Err = err
		s.baselineRuns[id] = run
		return run
	}
	run.NodesEvaluated = res.NodesEvaluated
	run.Truncated = res.Truncated
	s.baselineRuns[id] = run
	return run
}

// fbIDs and dbIDs list the workload query IDs in paper order.
func (s *Suite) fbIDs() []string {
	ids := make([]string, 0, len(s.FB.Queries))
	for _, q := range s.FB.Queries {
		ids = append(ids, q.ID)
	}
	return ids
}

func (s *Suite) dbIDs() []string {
	ids := make([]string, 0, len(s.DB.Queries))
	for _, q := range s.DB.Queries {
		ids = append(ids, q.ID)
	}
	return ids
}
