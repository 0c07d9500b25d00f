// Package obs is the engine's observability substrate: a lightweight,
// dependency-free trace recorder and fixed-bucket latency histograms.
//
// The Tracer records one query's execution as a tree of spans (name, start
// offset, duration, int64 attributes) plus a per-lattice-node evaluation
// table. It is deliberately minimal — no sampling, no export protocol, no
// wall-clock timestamps in spans — because its one job is to answer "where
// did this query's time go" for /v1/query:explain and slow-query logs.
//
// Cost discipline: a nil *Tracer is the disabled state and every method is
// nil-receiver-safe, so instrumented code calls tr.Start(...)/sp.End()
// unconditionally and pays only a nil check (no allocation, no time.Now)
// when tracing is off. TestTracerNilSafe holds the disabled path to zero
// allocations; the benchmark's trace.overhead_share metric reports what the
// enabled path costs.
//
// Concurrency: one Tracer belongs to one query and its span tree is built
// from a single goroutine (the request handler, the engine, and the search
// are one goroutine).
package obs

import "time"

// Attr is one integer span attribute. Attributes are int64-only by design:
// counts and microsecond durations cover everything the engine reports, and
// a flat []Attr of value types keeps recording allocation-cheap.
type Attr struct {
	Key string
	Val int64
}

// Span is one timed stage of a query. Start is the offset from the trace
// root's start, so a span tree is self-contained without wall-clock times.
type Span struct {
	Name     string
	Start    time.Duration
	Duration time.Duration
	Attrs    []Attr
	Children []*Span

	tr *Tracer
}

// Tracer records one query's span tree and node-evaluation table.
// The zero value is not usable; call New. A nil Tracer is the disabled
// tracer: every method is a no-op and Start returns a nil Span whose
// methods are no-ops too.
type Tracer struct {
	t0    time.Time
	root  *Span
	stack []*Span // open spans; stack[0] is root, top is the current span
	evals []NodeEval
}

// New starts a trace. The root span ("query") is open immediately; Finish
// closes it.
func New() *Tracer {
	t := &Tracer{t0: time.Now()}
	t.root = &Span{Name: "query", tr: t}
	t.stack = append(t.stack, t.root)
	return t
}

// Enabled reports whether the tracer records anything (i.e. is non-nil).
// Instrumented code only needs it to gate work beyond span calls themselves,
// such as taking eval timestamps.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a child span under the current span and makes it current.
// Returns nil (safely End-able) on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{Name: name, Start: time.Since(t.t0), tr: t}
	parent := t.stack[len(t.stack)-1]
	parent.Children = append(parent.Children, sp)
	t.stack = append(t.stack, sp)
	return sp
}

// End closes the span, fixing its duration and making its parent current
// again. Ending a span also ends any still-open descendants. No-op on nil.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.tr
	for i := len(t.stack) - 1; i >= 1; i-- {
		if t.stack[i] == sp {
			for _, open := range t.stack[i:] {
				open.Duration = time.Since(t.t0) - open.Start
			}
			t.stack = t.stack[:i]
			return
		}
	}
}

// SetAttr appends an attribute to the span. No-op on nil.
func (sp *Span) SetAttr(key string, val int64) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: val})
}

// Attr appends an attribute to the current (innermost open) span. This is
// how deep layers annotate the stage span their caller opened — e.g. the
// search loop attaching evaluator counters to the enclosing "search" span —
// without threading span handles through every signature.
func (t *Tracer) Attr(key string, val int64) {
	if t == nil {
		return
	}
	sp := t.stack[len(t.stack)-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: val})
}

// Finish closes the root span (and any stragglers) and returns it.
func (t *Tracer) Finish() *Span {
	if t == nil {
		return nil
	}
	for _, open := range t.stack {
		open.Duration = time.Since(t.t0) - open.Start
	}
	t.stack = t.stack[:1]
	return t.root
}

// Root returns the root span (nil on a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// NodeEval is one lattice-node evaluation, in the control loop's pop order.
// All fields except EvalMicros are deterministic; EvalMicros is the one
// wall-clock field (the node's join time).
type NodeEval struct {
	// Node is the lattice node's edge bitmask (lattice.EdgeSet).
	Node uint64
	// Edges is the number of MQG edges in the node.
	Edges int
	// UpperBound is U(Q) at pop time (Def. 9).
	UpperBound float64
	// SScore is the node's own structure score.
	SScore float64
	// Rows is the number of answer rows the node's join produced.
	Rows int
	// Null marks a node whose answers were empty (or all excluded) — the
	// prune trigger of Alg. 3.
	Null bool
	// Skipped marks a row-budget skip (exec.ErrTooManyRows).
	Skipped bool
	// EvalMicros is the node's join evaluation time in microseconds.
	EvalMicros int64
}

// AddNodeEval appends one evaluation record. No-op on nil.
func (t *Tracer) AddNodeEval(e NodeEval) {
	if t == nil {
		return
	}
	t.evals = append(t.evals, e)
}

// NodeEvals returns the recorded evaluation table in pop order.
func (t *Tracer) NodeEvals() []NodeEval {
	if t == nil {
		return nil
	}
	return t.evals
}
