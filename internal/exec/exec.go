// Package exec evaluates query graphs against the vertical-partition store
// using the right-deep hash-join strategy of §V-A. Each lattice node's
// answer set is materialized so that evaluating a parent Q = Q' + e probes
// the already-materialized rows of its child Q' against the hash table of
// e's label — the computation sharing Alg. 2 depends on.
//
// All query-graph nodes are variables (Def. 3 requires only edge labels to
// match), so an answer is an injective assignment of data-graph nodes to the
// query graph's nodes such that every query edge maps to a data edge with
// the same label.
//
// Materialized answers live in flat arenas: a lattice node's rows are one
// backing []graph.NodeID with stride = slot count (Rows), not millions of
// individual row slices. Arenas grow geometrically and are recycled across
// lattice nodes within one evaluator, so a search's join traffic is a
// handful of large allocations instead of per-row garbage.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"gqbe/internal/fault"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/storage"
)

// Unbound marks a row slot whose query-graph node has not been assigned yet.
// It is far below any data node ID and any virtual entity ID.
const Unbound graph.NodeID = math.MinInt32

// DefaultMaxRows bounds the materialized rows of a single lattice node; a
// query graph whose evaluation exceeds it fails with ErrTooManyRows rather
// than exhausting memory. The paper's slowest queries (F4, F19) hit exactly
// this kind of join blow-up.
const DefaultMaxRows = 5_000_000

// ErrTooManyRows reports a join blow-up beyond the configured row budget.
var ErrTooManyRows = errors.New("exec: intermediate result exceeds row budget")

// cancelCheckInterval is how many probe/output rows a join processes between
// context checks. Checking per row would put an atomic load on the innermost
// loop; a few thousand rows keeps cancellation latency well under a
// millisecond on any hardware that can run the join at all.
const cancelCheckInterval = 4096

// Row is one answer graph: the data node bound to each query-graph node
// slot. Slot order is fixed by the Evaluator (see NodeAt). A Row obtained
// from Rows.Row is a view into the arena: valid until the owning lattice
// node is Released, and never to be modified by callers.
type Row []graph.NodeID

// Rows is one lattice node's materialized answer set: row i occupies
// data[i*stride : (i+1)*stride] of a single flat arena.
type Rows struct {
	data   []graph.NodeID
	stride int
}

// Len returns the number of rows.
func (r *Rows) Len() int {
	if r == nil || r.stride == 0 {
		return 0
	}
	return len(r.data) / r.stride
}

// Row returns row i as a zero-copy view into the arena.
func (r *Rows) Row(i int) Row { return Row(r.data[i*r.stride : (i+1)*r.stride]) }

// Evaluator evaluates lattice nodes over one store, memoizing results. It is
// one query's state, owned by the goroutine running that query's search:
// not safe for concurrent use. Concurrent queries each build their own.
type Evaluator struct {
	store   *storage.Store
	lat     *lattice.Lattice
	maxRows int
	ctx     context.Context // nil means "not cancelable"; see ctxErr

	nodes   []graph.NodeID       // slot → MQG node
	slotOf  map[graph.NodeID]int // MQG node → slot
	srcSlot []int                // per MQG edge: slot of Src
	dstSlot []int                // per MQG edge: slot of Dst

	entitySlots []int // tuple position → slot

	unboundRow []graph.NodeID // stride Unbound values, the scanEdge template

	// memo holds each evaluated lattice node's answers (§V-A's computation
	// sharing: a parent extends a memoized child by one edge).
	memo      map[lattice.EdgeSet]*Rows
	evaluated int
	// Join-strategy traffic, for trace attrs: memo hits, one-edge
	// incremental joins, and from-scratch evaluations.
	memoHits    int
	incremental int
	scratch     int
	// free holds arenas recycled by Release and by superseded scratch
	// intermediates, reused by later evaluations.
	free [][]graph.NodeID
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithMaxRows overrides the row budget.
func WithMaxRows(n int) Option {
	return func(ev *Evaluator) { ev.maxRows = n }
}

// WithContext attaches a cancellation context: joins abort with the context's
// error at batch boundaries (every few thousand rows) once it is done.
func WithContext(ctx context.Context) Option {
	return func(ev *Evaluator) {
		if ctx != nil {
			ev.ctx = ctx
		}
	}
}

// New builds an evaluator for the query lattice l over store s.
func New(s *storage.Store, l *lattice.Lattice, opts ...Option) *Evaluator {
	ev := &Evaluator{
		store:   s,
		lat:     l,
		maxRows: DefaultMaxRows,
		slotOf:  make(map[graph.NodeID]int),
		memo:    make(map[lattice.EdgeSet]*Rows),
	}
	slot := func(v graph.NodeID) int {
		if i, ok := ev.slotOf[v]; ok {
			return i
		}
		i := len(ev.nodes)
		ev.nodes = append(ev.nodes, v)
		ev.slotOf[v] = i
		return i
	}
	for _, e := range l.M.Sub.Edges {
		ev.srcSlot = append(ev.srcSlot, slot(e.Src))
		ev.dstSlot = append(ev.dstSlot, slot(e.Dst))
	}
	for _, v := range l.M.Tuple {
		ev.entitySlots = append(ev.entitySlots, ev.slotOf[v])
	}
	ev.unboundRow = make([]graph.NodeID, len(ev.nodes))
	for i := range ev.unboundRow {
		ev.unboundRow[i] = Unbound
	}
	for _, o := range opts {
		o(ev)
	}
	return ev
}

// NumSlots returns the number of query-graph node slots.
func (ev *Evaluator) NumSlots() int { return len(ev.nodes) }

// NodeAt returns the MQG node occupying a slot.
func (ev *Evaluator) NodeAt(slot int) graph.NodeID { return ev.nodes[slot] }

// SlotOf returns the slot of an MQG node.
func (ev *Evaluator) SlotOf(v graph.NodeID) (int, bool) {
	i, ok := ev.slotOf[v]
	return i, ok
}

// EdgeSlots returns the (src, dst) slots of MQG edge i.
func (ev *Evaluator) EdgeSlots(i int) (int, int) { return ev.srcSlot[i], ev.dstSlot[i] }

// EntitySlots returns the slots holding the answer-tuple entities, in tuple
// order.
func (ev *Evaluator) EntitySlots() []int { return ev.entitySlots }

// TupleOf projects a row to its answer tuple (Def. 3's t_A), allocating the
// result. Hot loops should use AppendTuple with a reused buffer instead.
func (ev *Evaluator) TupleOf(row Row) []graph.NodeID {
	return ev.AppendTuple(nil, row)
}

// AppendTuple appends row's answer tuple to dst and returns the extended
// slice; passing dst[:0] across rows makes tuple projection allocation-free.
//
//gqbe:hotpath
func (ev *Evaluator) AppendTuple(dst []graph.NodeID, row Row) []graph.NodeID {
	for _, s := range ev.entitySlots {
		dst = append(dst, row[s])
	}
	return dst
}

// ctxErr reports the evaluator's cancellation state. A nil ctx — an
// evaluator built without WithContext — is never canceled; defaulting the
// field to a fresh context.Background() would hide a severed cancellation
// chain from the ctxflow invariant instead of surfacing the caller's bug.
func (ev *Evaluator) ctxErr() error {
	if ev.ctx == nil {
		return nil
	}
	return ev.ctx.Err()
}

// Evaluated returns the number of lattice-node evaluations this evaluator
// ran, memo hits excluded — Fig. 15's metric.
func (ev *Evaluator) Evaluated() int { return ev.evaluated }

// Counters reports the evaluator's memo traffic: total evaluations, memo
// hits, one-edge incremental joins, and from-scratch evaluations. The trace
// layer attaches these to the search span.
func (ev *Evaluator) Counters() (evaluated, memoHits, incremental, scratch int) {
	return ev.evaluated, ev.memoHits, ev.incremental, ev.scratch
}

// Rows returns the materialized answers of q, if it has been evaluated.
func (ev *Evaluator) Rows(q lattice.EdgeSet) (*Rows, bool) {
	rows, ok := ev.memo[q]
	return rows, ok
}

// Release drops the materialized answers of q, recycling their arena for
// later evaluations. Rows previously returned for q become invalid.
func (ev *Evaluator) Release(q lattice.EdgeSet) {
	if rows, ok := ev.memo[q]; ok {
		delete(ev.memo, q)
		ev.recycle(rows)
	}
}

// newRows returns an empty row set backed by a recycled arena when one is
// available, with capacity for at least capRows rows either way.
func (ev *Evaluator) newRows(capRows int) *Rows {
	stride := len(ev.nodes)
	want := capRows * stride
	// want == 0 never draws from the pool: an empty result needs no
	// backing, and memoized empty nodes must not pin recycled arenas.
	if n := len(ev.free); n > 0 && want > 0 {
		// Reuse the top arena when it can hold the hint; a too-small one
		// stays pooled for a smaller consumer and a fresh arena is cut.
		if data := ev.free[n-1]; cap(data) >= want {
			ev.free = ev.free[:n-1]
			return &Rows{data: data[:0], stride: stride}
		}
	}
	return &Rows{data: make([]graph.NodeID, 0, want), stride: stride}
}

// recycle returns an arena to the free list for reuse.
func (ev *Evaluator) recycle(rows *Rows) {
	if rows != nil && cap(rows.data) > 0 {
		ev.free = append(ev.free, rows.data[:0])
	}
}

// Evaluate returns all answer graphs of query graph q, evaluating and
// memoizing it if needed. If some already-evaluated child Q' = q − e exists,
// only the one extra edge is joined against Q”s materialized rows;
// otherwise q is evaluated from scratch in a selectivity-greedy join order.
// Either way the answer set (and whether the row budget trips) is a function
// of q alone; only the row order can differ.
//
//gqbe:hotpath
func (ev *Evaluator) Evaluate(q lattice.EdgeSet) (*Rows, error) {
	if q == 0 {
		return nil, errors.New("exec: empty query graph")
	}
	// Injection points; when disarmed each is a nil-check.
	if err := fault.Check(fault.ExecEvalErr); err != nil {
		return nil, err
	}
	fault.PanicIf(fault.ExecEvalPanic)
	if rows, ok := ev.memo[q]; ok {
		ev.memoHits++
		return rows, nil
	}
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	ev.evaluated++
	// Prefer extending a materialized child by one edge (shared computation).
	childEdge := -1
	var childRows *Rows
	for r := uint64(q); r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		if rows, ok := ev.memo[q&^lattice.Bit(i)]; ok {
			childEdge, childRows = i, rows
			break
		}
	}
	var rows *Rows
	var err error
	if childEdge >= 0 {
		ev.incremental++
		rows, err = ev.joinEdge(childRows, childEdge)
	} else {
		ev.scratch++
		rows, err = ev.evaluateScratch(q)
	}
	if err != nil {
		return nil, err
	}
	ev.memo[q] = rows
	return rows, nil
}

// evaluateScratch evaluates q with no materialized child: edges are joined
// one at a time, always picking a next edge that shares a bound slot, with
// the smallest table first (join selectivity dominates cost, §VI-D).
// Intermediate row sets are recycled as soon as the next join supersedes
// them — only the final result keeps its arena.
func (ev *Evaluator) evaluateScratch(q lattice.EdgeSet) (*Rows, error) {
	remaining := ev.lat.EdgeIndices(q)
	if len(remaining) == 0 {
		return nil, errors.New("exec: empty query graph")
	}
	tableLen := func(i int) int {
		t, ok := ev.store.Table(ev.lat.M.Sub.Edges[i].Label)
		if !ok {
			return 0
		}
		return t.Len()
	}
	// Pick the globally smallest table as the base relation.
	first := remaining[0]
	for _, i := range remaining[1:] {
		if tableLen(i) < tableLen(first) {
			first = i
		}
	}
	rows, err := ev.scanEdge(first)
	if err != nil {
		return nil, err
	}
	bound := map[int]bool{ev.srcSlot[first]: true, ev.dstSlot[first]: true}
	rest := make([]int, 0, len(remaining)-1)
	for _, i := range remaining {
		if i != first {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		// Choose the connected edge with the smallest table.
		pick := -1
		for _, i := range rest {
			if !bound[ev.srcSlot[i]] && !bound[ev.dstSlot[i]] {
				continue
			}
			if pick == -1 || tableLen(i) < tableLen(pick) {
				pick = i
			}
		}
		if pick == -1 {
			// q is weakly connected, so this cannot happen for valid query
			// graphs; guard against misuse with invalid edge sets.
			return nil, fmt.Errorf("exec: query graph %b is not weakly connected", q)
		}
		next, err := ev.joinEdge(rows, pick)
		if err != nil {
			return nil, err
		}
		ev.recycle(rows) // superseded intermediate: arena goes back to the pool
		rows = next
		bound[ev.srcSlot[pick]] = true
		bound[ev.dstSlot[pick]] = true
		out := rest[:0]
		for _, i := range rest {
			if i != pick {
				out = append(out, i)
			}
		}
		rest = out
	}
	return rows, nil
}

// scanEdge materializes the base relation: one row per pair in edge i's
// label table, written directly into a flat arena.
//
//gqbe:hotpath
func (ev *Evaluator) scanEdge(i int) (*Rows, error) {
	ss, ds := ev.srcSlot[i], ev.dstSlot[i]
	t, ok := ev.store.Table(ev.lat.M.Sub.Edges[i].Label)
	if !ok {
		return ev.newRows(0), nil // label with no edges: no answers
	}
	subj, obj := t.PairCols()
	if len(subj) > ev.maxRows {
		//gqbelint:ignore hotalloc cold error path: the row-budget abort runs at most once per evaluation
		return nil, fmt.Errorf("%w: base scan of %d rows", ErrTooManyRows, len(subj))
	}
	out := ev.newRows(len(subj))
	for n, s := range subj {
		if n%cancelCheckInterval == 0 {
			if err := ev.ctxErr(); err != nil {
				return nil, err
			}
		}
		o := obj[n]
		if ss == ds {
			// self-loop query edge: subject and object must coincide
			if s != o {
				continue
			}
		} else if s == o {
			continue // injectivity: two distinct query nodes, one data node
		}
		base := len(out.data)
		out.data = append(out.data, ev.unboundRow...)
		out.data[base+ss] = s
		out.data[base+ds] = o
	}
	return out, nil
}

// joinEdge is the hash-join of §V-A: the rows are the probe relation, the
// label table of edge i is the build relation. Depending on which endpoint
// slots are already bound, the join verifies the edge, extends rows by one
// new binding, or (never for valid lattice parents) both endpoints are new.
// Output rows are appended to a fresh arena; the probe rows are not touched.
//
//gqbe:hotpath
func (ev *Evaluator) joinEdge(rows *Rows, i int) (*Rows, error) {
	ss, ds := ev.srcSlot[i], ev.dstSlot[i]
	t, ok := ev.store.Table(ev.lat.M.Sub.Edges[i].Label)
	if !ok {
		return ev.newRows(0), nil // label with no edges: no answers
	}
	nrows := rows.Len()
	out := ev.newRows(nrows)
	stride := out.stride
	count := 0
	// push copies src into the arena, then overwrites slot (when >= 0) with
	// v — the one-copy equivalent of the old extend-then-append.
	//gqbelint:ignore hotalloc one closure per join call, amortized over every output row; per-row state lives in the arena
	push := func(src Row, slot int, v graph.NodeID) error {
		out.data = append(out.data, src...)
		if slot >= 0 {
			out.data[len(out.data)-stride+slot] = v
		}
		count++
		if count > ev.maxRows {
			return fmt.Errorf("%w: joining edge %d", ErrTooManyRows, i)
		}
		if count%cancelCheckInterval == 0 {
			return ev.ctxErr()
		}
		return nil
	}
	for n := 0; n < nrows; n++ {
		if n%cancelCheckInterval == 0 {
			if err := ev.ctxErr(); err != nil {
				return nil, err
			}
		}
		row := rows.Row(n)
		bs, bd := row[ss] != Unbound, row[ds] != Unbound
		switch {
		case bs && bd:
			if t.Has(row[ss], row[ds]) {
				if err := push(row, -1, 0); err != nil {
					return nil, err
				}
			}
		case bs:
			for _, obj := range t.Objects(row[ss]) {
				if ev.conflicts(row, obj) {
					continue
				}
				if err := push(row, ds, obj); err != nil {
					return nil, err
				}
			}
		case bd:
			for _, subj := range t.Subjects(row[ds]) {
				if ev.conflicts(row, subj) {
					continue
				}
				if err := push(row, ss, subj); err != nil {
					return nil, err
				}
			}
		default:
			// Both endpoints unbound: cartesian extension. Valid parents
			// always share a node with their child, so this only occurs for
			// hand-built edge sets; support it for completeness.
			subj, obj := t.PairCols()
			for k, s := range subj {
				o := obj[k]
				if ev.conflicts(row, s) || ev.conflicts(row, o) {
					continue
				}
				if ss != ds && s == o {
					continue
				}
				if err := push(row, ss, s); err != nil {
					return nil, err
				}
				out.data[len(out.data)-stride+ds] = o
			}
		}
	}
	return out, nil
}

// conflicts reports whether binding v would violate injectivity against the
// row's existing bindings (Def. 3's bijection).
//
//gqbe:hotpath
func (ev *Evaluator) conflicts(row Row, v graph.NodeID) bool {
	for _, b := range row {
		if b == v {
			return true
		}
	}
	return false
}
