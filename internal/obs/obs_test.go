package obs

import (
	"testing"
	"time"
)

func TestTracerSpanTree(t *testing.T) {
	tr := New()
	a := tr.Start("a")
	a1 := tr.Start("a1")
	a1.SetAttr("n", 7)
	a1.End()
	tr.Attr("rows", 3) // current span is "a" again
	a.End()
	b := tr.Start("b")
	b.End()
	root := tr.Finish()

	if root.Name != "query" {
		t.Fatalf("root name = %q, want query", root.Name)
	}
	if len(root.Children) != 2 || root.Children[0].Name != "a" || root.Children[1].Name != "b" {
		t.Fatalf("root children = %+v, want [a b]", root.Children)
	}
	got := root.Children[0]
	if len(got.Children) != 1 || got.Children[0].Name != "a1" {
		t.Fatalf("a children = %+v, want [a1]", got.Children)
	}
	if len(got.Children[0].Attrs) != 1 || got.Children[0].Attrs[0] != (Attr{Key: "n", Val: 7}) {
		t.Errorf("a1 attrs = %+v, want [{n 7}]", got.Children[0].Attrs)
	}
	if len(got.Attrs) != 1 || got.Attrs[0] != (Attr{Key: "rows", Val: 3}) {
		t.Errorf("a attrs = %+v, want [{rows 3}]", got.Attrs)
	}
	// Containment: children start at or after the parent and fit inside it.
	var check func(sp *Span)
	check = func(sp *Span) {
		for _, c := range sp.Children {
			if c.Start < sp.Start {
				t.Errorf("span %s starts before parent %s", c.Name, sp.Name)
			}
			if c.Start+c.Duration > sp.Start+sp.Duration+time.Millisecond {
				t.Errorf("span %s (%v+%v) extends past parent %s (%v+%v)",
					c.Name, c.Start, c.Duration, sp.Name, sp.Start, sp.Duration)
			}
			check(c)
		}
	}
	check(root)
}

// TestTracerEndClosesDescendants pins the straggler rule: ending a span (or
// finishing the trace) closes any descendants an error path left open, so a
// partial trace is still well-formed.
func TestTracerEndClosesDescendants(t *testing.T) {
	tr := New()
	outer := tr.Start("outer")
	inner := tr.Start("inner")
	outer.End() // inner never ended explicitly
	if inner.Duration == 0 {
		t.Error("ending the outer span did not close the open inner span")
	}
	if cur := tr.Start("next"); cur == nil {
		t.Fatal("tracer unusable after straggler close")
	}
	root := tr.Finish()
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (outer, next)", len(root.Children))
	}
	if root.Children[1].Duration == 0 {
		t.Error("Finish did not close the still-open span")
	}
}

// TestTracerNilSafe is the zero-overhead contract: every call on a disabled
// (nil) tracer and on the nil spans it hands out must be a safe no-op that
// allocates nothing.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	sp := tr.Start("x")
	if sp != nil {
		t.Errorf("nil tracer Start returned %v, want nil", sp)
	}
	sp.SetAttr("k", 1)
	sp.End()
	tr.Attr("k", 1)
	tr.AddNodeEval(NodeEval{Node: 1})
	if got := tr.NodeEvals(); got != nil {
		t.Errorf("nil tracer NodeEvals = %v, want nil", got)
	}
	if got := tr.Finish(); got != nil {
		t.Errorf("nil tracer Finish = %v, want nil", got)
	}
	if got := tr.Root(); got != nil {
		t.Errorf("nil tracer Root = %v, want nil", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("x")
		sp.SetAttr("k", 1)
		sp.End()
		tr.Attr("k", 1)
		tr.AddNodeEval(NodeEval{Node: 1})
	})
	if allocs != 0 {
		t.Errorf("nil tracer allocates %v times per call sequence, want 0", allocs)
	}
}

func TestTracerNodeEvals(t *testing.T) {
	tr := New()
	tr.AddNodeEval(NodeEval{Node: 0b101, Edges: 2, Rows: 4})
	tr.AddNodeEval(NodeEval{Node: 0b111, Edges: 3, Null: true})
	evals := tr.NodeEvals()
	if len(evals) != 2 {
		t.Fatalf("NodeEvals len = %d, want 2", len(evals))
	}
	if evals[0].Node != 0b101 || evals[1].Null != true {
		t.Errorf("NodeEvals = %+v, want pop order preserved", evals)
	}
}
