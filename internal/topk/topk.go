// Package topk implements GQBE's query processing (§V): the best-first
// exploration of the query lattice (Alg. 2), upper-boundary recomputation
// after pruning (Alg. 3), the Theorem-4 termination test, and the two-stage
// ranking of §V-B (structure-score search for the top-k′ answer tuples,
// then re-ranking by the full Eq. 5 score for the final top-k).
package topk

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"time"

	"gqbe/internal/exec"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/obs"
	"gqbe/internal/scoring"
	"gqbe/internal/storage"
)

// Options tunes the search.
type Options struct {
	// K is the number of answer tuples to return.
	K int
	// KPrime is the stage-1 pool size: the search runs under the simplified
	// scoring score_Q(A) = s_score(Q) until KPrime tuples are secured, then
	// re-ranks them with the full score. The paper found k′≈100 best for
	// k in 10..25 (§V-B). Defaults to max(100, 4·K).
	KPrime int
	// MaxRows bounds materialized rows per lattice node (see exec).
	MaxRows int
	// MaxEvaluations caps evaluated lattice nodes as a safety valve;
	// 0 means no cap.
	MaxEvaluations int
	// Tracer, when non-nil, records a per-pop node-evaluation table and
	// evaluator counters into the query's trace (see internal/obs). Purely
	// observational: the Result is bit-identical with tracing on or off, so
	// it must be excluded from result-cache keys.
	Tracer *obs.Tracer
	// ShardIndex/ShardCount partition the ANSWER SPACE across a fleet of
	// engines that each hold the full graph: a search with ShardCount > 1
	// runs the identical full trajectory (same frontier pops, same absorb
	// state, same termination point, same counters) and applies ownership
	// only between the two ranking stages — after the stage-1 k′ cut, tuples
	// not owned by this shard (see OwnerShard) are dropped, and stage 2 ranks
	// the owned remainder. Because the stage-1 pool is identical on every
	// shard and each pool member is owned by exactly one shard, the k-way
	// merge of the per-shard top-k lists under (Score desc, tie-key asc)
	// reconstructs the unsharded top-k bit for bit (oracle-tested in
	// shard_test.go and internal/router). ShardCount <= 1 disables the
	// filter. Shard identity is a per-process deployment property, never a
	// client knob, and is excluded from result-cache keys.
	ShardIndex int
	ShardCount int
}

// Fill makes the default option values explicit in place. Exported so
// callers needing the canonical form of a query's options (e.g. cache-key
// normalization in the serving layer) share one source of truth.
func (o *Options) Fill() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.KPrime < o.K {
		o.KPrime = 4 * o.K
		if o.KPrime < 100 {
			o.KPrime = 100
		}
	}
	if o.MaxRows <= 0 {
		o.MaxRows = exec.DefaultMaxRows
	}
}

// Answer is one ranked answer tuple.
type Answer struct {
	// Tuple holds the answer entities, positionally matching the query tuple.
	Tuple []graph.NodeID
	// Score is the final score: best s_score + c_score over all answer
	// graphs observed for this tuple (Eq. 1 with Eq. 5).
	Score float64
	// SScore is the best structure-only score (stage 1's ranking key).
	SScore float64
	// BestGraph is the query graph that achieved SScore.
	BestGraph lattice.EdgeSet
}

// StopReason says why a search returned — the uniform "why did this query
// stop" story shared by the termination test, the safety valves, and
// cancellation.
type StopReason string

const (
	// StopExhausted: the frontier emptied; every reachable lattice node was
	// evaluated or pruned.
	StopExhausted StopReason = "frontier-exhausted"
	// StopProven: the Theorem-4 test proved the top-k is final.
	StopProven StopReason = "topk-proven"
	// StopRowBudget: the frontier emptied or the Theorem-4 test fired, but a
	// lattice node skipped for exceeding the row budget could still hold a
	// better answer than the k′-th best found, so the answers may differ
	// from an unbudgeted search's.
	StopRowBudget StopReason = "row-budget"
	// StopMaxEvaluations: the MaxEvaluations safety valve fired.
	StopMaxEvaluations StopReason = "max-evaluations"
	// StopDeadline: the context's deadline expired mid-search; the Result is
	// the partial state at that point (anytime answers).
	StopDeadline StopReason = "deadline"
	// StopCanceled: the context was canceled mid-search; the Result is the
	// partial state at that point.
	StopCanceled StopReason = "canceled"
)

// Result is the outcome of a search, including the efficiency counters the
// paper's evaluation reports.
type Result struct {
	Answers []Answer
	// NodesEvaluated is the number of lattice nodes evaluated (Fig. 15).
	NodesEvaluated int
	// NullNodes is the number of evaluated nodes with no answers.
	NullNodes int
	// TuplesSeen is the number of distinct answer tuples encountered.
	TuplesSeen int
	// Stopped says why the search returned; Stopped == StopProven means the
	// Theorem-4 test fired before the frontier emptied.
	Stopped StopReason
	// RowBudgetSkips counts lattice nodes skipped because their join
	// results exceeded the row budget. A skip that could hide a better
	// answer sets Stopped to StopRowBudget.
	RowBudgetSkips int
	// NodesGenerated is the number of distinct lattice nodes ever admitted
	// to the lower frontier (candidates the search considered).
	NodesGenerated int
	// NodesPruned counts frontier candidates discarded before evaluation
	// because a null node subsumed them (Property 3 upward closure).
	NodesPruned int
	// FrontierRecomputes is the number of Alg. 3 upper-frontier
	// recomputations (one per null node that invalidated the frontier).
	FrontierRecomputes int
	// PeakLiveRows is the most materialized rows the search held at once:
	// the rows of the absorbed nodes a waiting parent could still extend.
	PeakLiveRows int
}

// cancelCheckInterval is how many rows the scoring passes process between
// context checks, matching the join executor's granularity: a lattice node
// can materialize millions of rows, and absorbing them (key building, map
// inserts, content scoring) is comparable work to the join itself.
const cancelCheckInterval = 4096

// AppendTupleKey appends t's deterministic tie-break key to b: the node IDs
// in decimal, comma-joined. rank orders equal-score answers by this key
// ascending, so a fleet router that re-merges per-shard rankings under
// (Score desc, TupleKey asc) reproduces the single-engine order exactly.
// Keys are comparable only between engines built from the same input (node
// IDs are assigned in load order).
func AppendTupleKey(b []byte, t []graph.NodeID) []byte {
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// TupleKey renders t's tie-break key (see AppendTupleKey) as a string.
func TupleKey(t []graph.NodeID) string { return string(AppendTupleKey(nil, t)) }

// OwnerShard maps an answer tuple's pivot (first) entity to the shard that
// owns the tuple in an answer-space-sharded fleet: SplitMix64 of the node ID
// modulo the shard count. The finalizer spreads the sequentially assigned
// node IDs uniformly, so shard loads balance even though IDs cluster by
// load order. count must be >= 1.
func OwnerShard(pivot graph.NodeID, count int) int {
	return int(splitmix64(uint64(pivot)) % uint64(count))
}

// ShardScheme names the fleet's answer-ownership assignment as recorded in
// shard snapshots and fleet manifests. A reader that finds any other scheme
// string must refuse the fleet rather than merge rankings partitioned under
// different rules.
const ShardScheme = "splitmix64/pivot-entity"

// splitmix64 is the SplitMix64 finalizer (same mixer internal/fault uses for
// its seeded coin flips): stateless, well-mixed, and stable across releases —
// shard assignment is part of the on-disk fleet contract, so this function
// must never change.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// candidate tracks the best scores seen for one answer tuple. A query tuple
// is a candidate with excluded set: it is never an answer, and a node whose
// rows all project to query tuples is null.
type candidate struct {
	tuple     []graph.NodeID
	bestS     float64
	bestFull  float64
	bestGraph lattice.EdgeSet
	excluded  bool
}

// binds reports whether row binds the entity slots ents to c's tuple.
//
//gqbe:hotpath
func (c *candidate) binds(row exec.Row, ents []int) bool {
	for i, slot := range ents {
		if row[slot] != c.tuple[i] {
			return false
		}
	}
	return true
}

// SearchCtx runs Alg. 2 over the lattice lat against store, excluding the
// query tuples themselves from the answers (a query tuple trivially matches
// itself, §II). For merged multi-tuple MQGs pass every input tuple in
// exclude. The search checks ctx at every node-evaluation boundary (and the
// joins check it at batch granularity, see exec.WithContext), returning the
// context's error as soon as it is done. A search canceled mid-loop returns
// BOTH a non-nil partial Result — the answers and counters at the moment of
// interruption, with Stopped set to StopDeadline or StopCanceled — and the
// wrapped context error, so callers can surface anytime answers alongside
// the disposition.
func SearchCtx(ctx context.Context, store *storage.Store, lat *lattice.Lattice, exclude [][]graph.NodeID, opts Options) (*Result, error) {
	opts.Fill()
	ev := exec.New(store, lat, exec.WithMaxRows(opts.MaxRows), exec.WithContext(ctx))
	sc := scoring.New(lat, ev)

	s := &searcher{
		ctx:     ctx,
		lat:     lat,
		ev:      ev,
		sc:      sc,
		opts:    opts,
		tr:      opts.Tracer,
		upper:   []ufNode{{set: lat.Full(), sscore: lat.SScore(lat.Full())}},
		inLF:    make(map[lattice.EdgeSet]bool),
		done:    make(map[lattice.EdgeSet]bool),
		waiting: make(map[lattice.EdgeSet]int),
		tuples:  newTupleMap(),
	}
	for _, t := range exclude {
		if s.tuples.lookup(t) == nil {
			s.tuples.insert(&candidate{tuple: append([]graph.NodeID(nil), t...), excluded: true})
		}
	}
	for _, q := range lat.MinimalTrees() {
		s.pushLF(q)
	}
	res, err := s.run()
	if tr := opts.Tracer; tr != nil {
		evals, hits, inc, scr := ev.Counters()
		tr.Attr("exec_evaluations", int64(evals))
		tr.Attr("exec_memo_hits", int64(hits))
		tr.Attr("exec_incremental_joins", int64(inc))
		tr.Attr("exec_scratch_evals", int64(scr))
		tr.Attr("exec_peak_live_rows", int64(ev.PeakLiveRows()))
	}
	return res, err
}

// evaluate is the evaluator's Evaluate, timed only when tracing is on (the
// disabled-tracing path must not pay for time.Now; the benchmark's
// trace.overhead_share metric reports what tracing costs).
func (s *searcher) evaluate(q lattice.EdgeSet) (*exec.Rows, time.Duration, error) {
	if s.tr == nil {
		rows, err := s.ev.Evaluate(q)
		return rows, 0, err
	}
	//gqbelint:ignore determinism trace-only timing: durations feed span records, never answers or tie-breaks
	start := time.Now()
	rows, err := s.ev.Evaluate(q)
	//gqbelint:ignore determinism trace-only timing: durations feed span records, never answers or tie-breaks
	return rows, time.Since(start), err
}

// ufNode is one upper-frontier member with its cached structure score.
type ufNode struct {
	set    lattice.EdgeSet
	sscore float64
}

// lfEntry is a frontier candidate in the lazy max-heap. epoch records the
// upper-frontier version its bound was computed against; the frontier only
// shrinks, so stale bounds overestimate and lazy recomputation on pop is
// sound for a max-heap.
type lfEntry struct {
	q     lattice.EdgeSet
	ub    float64
	own   float64 // s_score(q), the tie-break
	epoch int
}

type lfHeap []lfEntry

func (h lfHeap) Len() int { return len(h) }
func (h lfHeap) Less(i, j int) bool {
	if h[i].ub != h[j].ub {
		return h[i].ub > h[j].ub
	}
	// The paper leaves ties in U(Q) unspecified. Break them toward the
	// SMALLER structure score: cheaper query graphs are evaluated first, so
	// small null nodes are discovered (and their ancestors pruned) at least
	// as early as breadth-first traversal would, while the upper-bound
	// ordering still prioritizes promising regions.
	if h[i].own != h[j].own {
		return h[i].own < h[j].own
	}
	return h[i].q < h[j].q
}
func (h lfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lfHeap) Push(x any)   { *h = append(*h, x.(lfEntry)) }
func (h *lfHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// searcher is the mutable state of one Alg. 2 run.
type searcher struct {
	ctx  context.Context
	lat  *lattice.Lattice
	ev   *exec.Evaluator
	sc   *scoring.Scorer
	opts Options
	tr   *obs.Tracer // nil when tracing is off

	lf    lfHeap // lower frontier (candidates), lazy max-heap by U(Q)
	inLF  map[lattice.EdgeSet]bool
	done  map[lattice.EdgeSet]bool // evaluated
	nulls []lattice.EdgeSet        // minimal null antichain; pruned = superset of any
	upper []ufNode                 // upper frontier: maximal unpruned nodes
	epoch int                      // bumped whenever upper changes
	// waiting holds, per absorbed node whose rows are still memoized, how
	// many of its parents are in the lower frontier. Only those parents can
	// read the rows (a one-edge join in exec.Evaluate), so at zero the rows
	// are released. A parent enters the frontier later only through a child
	// absorbed just then, which stays memoized while the parent waits.
	waiting map[lattice.EdgeSet]int

	tuples *tupleMap
	// best counts the answer candidates (every candidate not excluded) per
	// best structure score; absorb adds each one as it registers it.
	best scoreCounts
	// tupleBuf is the scratch buffer row tuples are projected into, and
	// slots the scorer's slot list of the node being absorbed; reusing them
	// keeps absorb allocation-free.
	tupleBuf []graph.NodeID
	slots    []int

	// consumed counts the lattice nodes the control loop evaluated.
	consumed int
	// skipBound is the largest U(Q) popped with a node the row budget
	// skipped. The upper frontier only shrinks, so it bounds the structure
	// score of every ancestor of every skipped node.
	skipBound float64

	nullCount int
	// generated/prunedCount mirror Result.NodesGenerated/NodesPruned.
	generated   int
	prunedCount int
}

// pruned reports whether q subsumes a known null node (upward closure,
// Property 3).
func (s *searcher) pruned(q lattice.EdgeSet) bool {
	for _, n := range s.nulls {
		if q.Subsumes(n) {
			return true
		}
	}
	return false
}

// upperBound returns U(Q) (Def. 9): the maximum structure score among upper
// frontier nodes subsuming q. Unpruned nodes always have one.
func (s *searcher) upperBound(q lattice.EdgeSet) (float64, bool) {
	best, found := 0.0, false
	for _, u := range s.upper {
		if u.set.Subsumes(q) && (!found || u.sscore > best) {
			best, found = u.sscore, true
		}
	}
	return best, found
}

// pushLF inserts a candidate with a freshly computed upper bound.
func (s *searcher) pushLF(q lattice.EdgeSet) {
	if s.inLF[q] || s.done[q] {
		return
	}
	ub, ok := s.upperBound(q)
	if !ok {
		s.prunedCount++
		return // effectively pruned
	}
	s.inLF[q] = true
	s.generated++
	heap.Push(&s.lf, lfEntry{q: q, ub: ub, own: s.lat.SScore(q), epoch: s.epoch})
	s.addWaiting(q, 1)
}

// addWaiting adds d to the waiting count of every memoized child of the
// frontier node p — +1 as p enters the frontier, −1 once it has left —
// releasing a child's rows when its count reaches zero.
func (s *searcher) addWaiting(p lattice.EdgeSet, d int) {
	for r := uint64(p); r != 0; r &= r - 1 {
		c := p &^ lattice.Bit(bits.TrailingZeros64(r))
		n, ok := s.waiting[c]
		if !ok {
			continue
		}
		if n += d; n > 0 {
			s.waiting[c] = n
			continue
		}
		delete(s.waiting, c)
		s.ev.Release(c)
	}
}

// popBest returns the unpruned candidate with the highest current
// upper-bound score, lazily refreshing stale bounds. A candidate it drops
// leaves the frontier here; the one it returns leaves once run has
// evaluated it, since the evaluation still reads its children's rows.
func (s *searcher) popBest() (lattice.EdgeSet, float64, bool) {
	for s.lf.Len() > 0 {
		e := heap.Pop(&s.lf).(lfEntry)
		if !s.inLF[e.q] {
			continue
		}
		if s.pruned(e.q) {
			delete(s.inLF, e.q)
			s.addWaiting(e.q, -1)
			s.prunedCount++
			continue
		}
		if e.epoch != s.epoch {
			ub, ok := s.upperBound(e.q)
			if !ok {
				delete(s.inLF, e.q)
				s.addWaiting(e.q, -1)
				s.prunedCount++
				continue
			}
			e.ub, e.epoch = ub, s.epoch
			heap.Push(&s.lf, e)
			continue
		}
		delete(s.inLF, e.q)
		return e.q, e.ub, true
	}
	return 0, 0, false
}

// kthBestSScore returns the structure score of the k′-th best tuple so far,
// or false if fewer than k′ tuples are known.
func (s *searcher) kthBestSScore() (float64, bool) { return s.best.kth(s.opts.KPrime) }

// run is the Alg. 2 control loop: pop the most promising candidate, evaluate
// it, then prune, recompute the upper frontier, or absorb its answers.
//
// Cancellation mid-loop returns the finalized partial Result (Stopped =
// StopDeadline/StopCanceled) together with the wrapped context error.
func (s *searcher) run() (*Result, error) {
	res := &Result{Stopped: StopExhausted}
	for {
		if err := s.ctx.Err(); err != nil {
			return s.interrupted(res, err)
		}
		if s.opts.MaxEvaluations > 0 && s.consumed >= s.opts.MaxEvaluations {
			res.Stopped = StopMaxEvaluations
			break
		}
		qbest, ub, ok := s.popBest()
		if !ok {
			break // frontier exhausted
		}
		// Theorem 4: stop when the current k′-th best answer beats the best
		// possible score of any unevaluated node. The paper uses a strict
		// inequality; we terminate on ties as well — the guarantee that no
		// unevaluated query graph can yield a strictly better tuple is
		// unchanged, and with discrete weight distributions (many answers
		// sharing one structure score) the strict test would never fire.
		if kth, have := s.kthBestSScore(); have && kth >= ub {
			res.Stopped = StopProven
			break
		}
		s.done[qbest] = true
		s.consumed++
		rows, dur, err := s.evaluate(qbest)
		s.addWaiting(qbest, -1)
		if err != nil {
			if errors.Is(err, exec.ErrTooManyRows) {
				// Join blow-up on this query graph (the paper's F4/F19
				// pathology): skip the node. Its ancestors may still be
				// cheap — additional join predicates shrink results — so
				// they are not pruned, but they will only be reached
				// through other children.
				res.RowBudgetSkips++
				s.skipBound = max(s.skipBound, ub)
				s.recordEval(qbest, ub, 0, false, true, dur)
				continue
			}
			if isContextErr(err) {
				return s.interrupted(res, err)
			}
			return nil, fmt.Errorf("topk: evaluating lattice node: %w", err)
		}
		answered, err := s.absorb(qbest, rows)
		if err != nil {
			return s.interrupted(res, err)
		}
		if !answered {
			// Null node (an answer set holding only the query tuple itself
			// prunes the same way: every ancestor answer restricts to a
			// child answer with the same projection). Its ancestors are
			// pruned, so nothing reads its rows again.
			s.nullCount++
			s.recordNull(qbest)
			s.recordEval(qbest, ub, rows.Len(), true, false, dur)
			s.ev.Release(qbest)
			continue
		}
		s.recordEval(qbest, ub, rows.Len(), false, false, dur)
		waiting := 0
		for _, p := range s.lat.Parents(qbest) {
			if !s.done[p] && !s.inLF[p] && !s.pruned(p) {
				s.pushLF(p)
			}
			if s.inLF[p] {
				waiting++
			}
		}
		if waiting > 0 {
			s.waiting[qbest] = waiting
		} else {
			s.ev.Release(qbest)
		}
	}
	if res.Stopped != StopMaxEvaluations && res.RowBudgetSkips > 0 {
		// Theorem 4's argument does not cover the skipped nodes' ancestors
		// unless the k′-th best tuple already scores at least skipBound.
		if kth, have := s.kthBestSScore(); !have || s.skipBound > kth {
			res.Stopped = StopRowBudget
		}
	}
	return s.finalize(res), nil
}

// finalize fills the Result's counters and ranked answers from the
// searcher's state.
func (s *searcher) finalize(res *Result) *Result {
	res.NodesEvaluated = s.consumed
	res.NullNodes = s.nullCount
	res.TuplesSeen = s.best.n
	res.NodesGenerated = s.generated
	res.NodesPruned = s.prunedCount
	res.FrontierRecomputes = s.epoch
	res.PeakLiveRows = s.ev.PeakLiveRows()
	res.Answers = s.rank()
	return res
}

// interrupted finalizes the partial Result for a context interruption and
// wraps the error. The partial answers are whatever the two-stage ranking
// yields from the tuples absorbed so far — the first step toward the
// anytime-answer mode on the roadmap.
func (s *searcher) interrupted(res *Result, err error) (*Result, error) {
	if errors.Is(err, context.DeadlineExceeded) {
		res.Stopped = StopDeadline
	} else {
		res.Stopped = StopCanceled
	}
	return s.finalize(res), fmt.Errorf("topk: search canceled: %w", err)
}

// isContextErr reports whether err is a context interruption (as opposed to
// a genuine evaluation failure, which still voids the Result).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// recordEval appends one consumed node to the trace's evaluation table.
// No-op when tracing is off.
func (s *searcher) recordEval(q lattice.EdgeSet, ub float64, rows int, null, skipped bool, dur time.Duration) {
	if s.tr == nil {
		return
	}
	s.tr.AddNodeEval(obs.NodeEval{
		Node:       uint64(q),
		Edges:      q.Count(),
		UpperBound: ub,
		SScore:     s.lat.SScore(q),
		Rows:       rows,
		Null:       null,
		Skipped:    skipped,
		EvalMicros: dur.Microseconds(),
	})
}

// absorb folds the answers of an evaluated node into the per-tuple bests
// and reports whether any row projected to a tuple other than a query tuple.
// Under the simplified stage-1 scoring every row of q scores s_score(q);
// the full score (with content credit) is tracked alongside for stage 2.
// A row is matched to its candidate by comparing its entity slots with the
// previous row's candidate, hashing only on a change, and its content score
// is recomputed only when its match mask changes. Like the joins, it checks
// ctx at batch granularity.
//
//gqbe:hotpath
func (s *searcher) absorb(q lattice.EdgeSet, rows *exec.Rows) (bool, error) {
	sScore := s.lat.SScore(q)
	ents := s.ev.EntitySlots()
	s.slots = s.sc.Slots(s.slots[:0], q)
	answered := false
	var c *candidate
	var mask uint64
	cScore := 0.0 // c_score of mask
	for n, nrows := 0, rows.Len(); n < nrows; n++ {
		if n%cancelCheckInterval == 0 {
			if err := s.ctx.Err(); err != nil {
				return false, err
			}
		}
		row := rows.Row(n)
		if c == nil || !c.binds(row, ents) {
			c = s.candidate(row)
		}
		if c.excluded {
			continue
		}
		answered = true
		if m := s.sc.Mask(s.slots, row); m != mask {
			mask, cScore = m, s.sc.CScore(q, m)
		}
		if c.bestGraph == 0 {
			c.bestS, c.bestGraph = sScore, q
			s.best.add(sScore)
		} else if sScore > c.bestS {
			s.best.raise(c.bestS, sScore)
			c.bestS, c.bestGraph = sScore, q
		}
		if full := sScore + cScore; full > c.bestFull {
			c.bestFull = full
		}
	}
	return answered, nil
}

// candidate returns the candidate of row's tuple, registering a new one on
// first sight.
//
//gqbe:hotpath
func (s *searcher) candidate(row exec.Row) *candidate {
	s.tupleBuf = s.ev.AppendTuple(s.tupleBuf[:0], row)
	c := s.tuples.lookup(s.tupleBuf)
	if c == nil {
		//gqbelint:ignore hotalloc one candidate per distinct answer tuple (bounded by TuplesSeen), not per row
		c = &candidate{tuple: append([]graph.NodeID(nil), s.tupleBuf...)}
		s.tuples.insert(c)
	}
	return c
}

// recordNull registers qbest as a null node, prunes its ancestors, and
// recomputes the upper frontier per Alg. 3: every pruned upper-frontier node
// Q' is replaced by the entity-containing components of Q' minus one edge of
// qbest, keeping only maximal survivors.
func (s *searcher) recordNull(qbest lattice.EdgeSet) {
	// Maintain the null set as a minimal antichain: a previously recorded
	// null that subsumes the new one is redundant.
	kept := s.nulls[:0]
	for _, n := range s.nulls {
		if !n.Subsumes(qbest) {
			kept = append(kept, n)
		}
	}
	s.nulls = append(kept, qbest)

	var keep []ufNode
	var replaced []lattice.EdgeSet
	for _, u := range s.upper {
		if u.set.Subsumes(qbest) {
			replaced = append(replaced, u.set)
		} else {
			keep = append(keep, u)
		}
	}
	if len(replaced) == 0 {
		return
	}
	var nb []lattice.EdgeSet
	seen := make(map[lattice.EdgeSet]bool)
	for _, qp := range replaced {
		for _, ei := range s.lat.EdgeIndices(qbest) {
			qsub := s.lat.ComponentContaining(qp &^ lattice.Bit(ei))
			if qsub == 0 || seen[qsub] || s.pruned(qsub) {
				continue
			}
			seen[qsub] = true
			nb = append(nb, qsub)
		}
	}
	// Keep only candidates not subsumed by surviving upper nodes or by a
	// strictly larger candidate (Alg. 3 lines 11–13).
	for _, cand := range nb {
		dominated := false
		for _, u := range keep {
			if u.set.Subsumes(cand) {
				dominated = true
				break
			}
		}
		if !dominated {
			for _, other := range nb {
				if other != cand && other.Subsumes(cand) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			keep = append(keep, ufNode{set: cand, sscore: s.lat.SScore(cand)})
		}
	}
	s.upper = keep
	s.epoch++
}

// rank applies the two-stage ranking of §V-B: order tuples by best structure
// score, keep the top k′, re-rank those by the full score, return the top k.
func (s *searcher) rank() []Answer {
	// The deterministic tie-break key is rendered once per candidate, not
	// once per comparison: large answer sets tie on both scores constantly,
	// and key building inside the comparators dominated the search's
	// allocation profile. All keys are rendered into one buffer, converted
	// to one string and sliced per candidate.
	type ranked struct {
		c   *candidate
		key string
		end int // the key's end offset in the rendered buffer
	}
	all := make([]ranked, 0, s.best.n)
	var buf []byte
	s.tuples.each(func(c *candidate) {
		if !c.excluded {
			buf = AppendTupleKey(buf, c.tuple)
			all = append(all, ranked{c: c, end: len(buf)})
		}
	})
	keys := string(buf)
	for i, start := 0, 0; i < len(all); i++ {
		all[i].key = keys[start:all[i].end]
		start = all[i].end
	}
	// Stage-1 order is by structure score; ties at the k′ boundary are
	// broken by the full score so that, among structurally identical
	// candidates, the ones the stage-2 re-rank would prefer survive the
	// cut (large answer sets routinely tie on s_score).
	sort.Slice(all, func(i, j int) bool {
		if all[i].c.bestS != all[j].c.bestS {
			return all[i].c.bestS > all[j].c.bestS
		}
		if all[i].c.bestFull != all[j].c.bestFull {
			return all[i].c.bestFull > all[j].c.bestFull
		}
		return all[i].key < all[j].key
	})
	if len(all) > s.opts.KPrime {
		all = all[:s.opts.KPrime]
	}
	// Answer-space sharding cuts here and ONLY here: the stage-1 pool above
	// is identical on every shard of a fleet (the search trajectory never
	// consults shard identity — filtering any earlier, e.g. at absorb time,
	// would change kthBestSScore and so the termination point), and each pool
	// member is owned by exactly one shard, so the per-shard stage-2 top-k
	// lists partition the unsharded pool and merge losslessly.
	if s.opts.ShardCount > 1 {
		kept := all[:0]
		for _, r := range all {
			if OwnerShard(r.c.tuple[0], s.opts.ShardCount) == s.opts.ShardIndex {
				kept = append(kept, r)
			}
		}
		all = kept
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c.bestFull != all[j].c.bestFull {
			return all[i].c.bestFull > all[j].c.bestFull
		}
		return all[i].key < all[j].key
	})
	if len(all) > s.opts.K {
		all = all[:s.opts.K]
	}
	answers := make([]Answer, len(all))
	for i, r := range all {
		answers[i] = Answer{Tuple: r.c.tuple, Score: r.c.bestFull, SScore: r.c.bestS, BestGraph: r.c.bestGraph}
	}
	return answers
}

// ErrNoAnswers is returned by convenience wrappers when a query yields
// nothing; Search itself returns an empty Result instead.
var ErrNoAnswers = errors.New("topk: no answer tuples found")
