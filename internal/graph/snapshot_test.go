package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gqbe/internal/snapio"
)

// snapGraph builds a small deterministic graph with parallel labels, high-
// and zero-degree nodes, and self loops.
func snapGraph() *Graph {
	g := New()
	g.AddEdge("a", "likes", "b")
	g.AddEdge("a", "likes", "c")
	g.AddEdge("b", "knows", "c")
	g.AddEdge("c", "knows", "a")
	g.AddEdge("c", "likes", "c") // self loop
	g.AddNode("isolated")
	for i := 0; i < 20; i++ {
		g.AddEdge("hub", "links", fmt.Sprintf("n%d", i))
	}
	g.SortAdjacency()
	return g
}

func snapshotBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	if err := g.AppendSnapshot(w); err != nil {
		t.Fatalf("AppendSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := snapGraph()
	got, err := ReadSnapshot(snapio.NewView(snapshotBytes(t, g)))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() || got.NumLabels() != g.NumLabels() {
		t.Fatalf("shape = (%d,%d,%d), want (%d,%d,%d)",
			got.NumNodes(), got.NumEdges(), got.NumLabels(),
			g.NumNodes(), g.NumEdges(), g.NumLabels())
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if got.Name(v) != g.Name(v) {
			t.Fatalf("name[%d] = %q, want %q", v, got.Name(v), g.Name(v))
		}
		if id, ok := got.Node(g.Name(v)); !ok || id != v {
			t.Fatalf("Node(%q) = %d,%v", g.Name(v), id, ok)
		}
		outA, outB := g.OutArcs(v), got.OutArcs(v)
		inA, inB := g.InArcs(v), got.InArcs(v)
		if outA.Len() != outB.Len() || inA.Len() != inB.Len() {
			t.Fatalf("node %d adjacency sizes differ", v)
		}
		for i := 0; i < outA.Len(); i++ {
			if outA.At(i) != outB.At(i) {
				t.Fatalf("out[%d][%d] = %v, want %v", v, i, outB.At(i), outA.At(i))
			}
		}
		for i := 0; i < inA.Len(); i++ {
			if inA.At(i) != inB.At(i) {
				t.Fatalf("in[%d][%d] = %v, want %v", v, i, inB.At(i), inA.At(i))
			}
		}
	}
	for l := LabelID(0); int(l) < g.NumLabels(); l++ {
		if got.LabelName(l) != g.LabelName(l) {
			t.Fatalf("label[%d] = %q, want %q", l, got.LabelName(l), g.LabelName(l))
		}
	}
	// HasEdge answers from adjacency on a loaded graph (no edge set).
	g.Edges(func(e Edge) bool {
		if !got.HasEdge(e) {
			t.Fatalf("loaded graph misses edge %v", e)
		}
		return true
	})
	if got.HasEdge(Edge{Src: 0, Label: 0, Dst: 0}) {
		t.Error("loaded graph invents a self loop on node 0")
	}
	if got.HasEdge(Edge{Src: -1, Label: 0, Dst: 5}) || got.HasEdge(Edge{Src: 5, Label: 0, Dst: NodeID(got.NumNodes())}) {
		t.Error("out-of-range HasEdge must be false, not a panic")
	}
}

// TestSnapshotThenMutate: the first AddEdge on a loaded graph rebuilds the
// dedup set, so duplicates are still rejected.
func TestSnapshotThenMutate(t *testing.T) {
	g := snapGraph()
	got, err := ReadSnapshot(snapio.NewView(snapshotBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if got.AddEdge("a", "likes", "b") {
		t.Error("duplicate edge admitted after snapshot load")
	}
	if !got.AddEdge("a", "likes", "zz-new") {
		t.Error("new edge rejected after snapshot load")
	}
	if got.NumEdges() != g.NumEdges()+1 {
		t.Errorf("edges = %d, want %d", got.NumEdges(), g.NumEdges()+1)
	}
}

// TestSnapshotRoundTripBytes: writing the loaded graph again reproduces the
// original section byte for byte (the snapshot is canonical for sorted
// graphs).
func TestSnapshotRoundTripBytes(t *testing.T) {
	g := snapGraph()
	first := snapshotBytes(t, g)
	loaded, err := ReadSnapshot(snapio.NewView(first))
	if err != nil {
		t.Fatal(err)
	}
	second := snapshotBytes(t, loaded)
	if !bytes.Equal(first, second) {
		t.Error("snapshot bytes not stable across a round trip")
	}
}

func TestSnapshotTruncated(t *testing.T) {
	full := snapshotBytes(t, snapGraph())
	// Every prefix must fail with a typed error, never panic.
	for cut := 0; cut < len(full); cut += 7 {
		_, err := ReadSnapshot(snapio.NewView(full[:cut]))
		if !errors.Is(err, snapio.ErrTruncated) && !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated/ErrCorrupt", cut, err)
		}
	}
}

// TestSnapshotCorruptShape: a degree column that disagrees with the edge
// count is ErrCorrupt.
func TestSnapshotCorruptShape(t *testing.T) {
	g := snapGraph()
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	// Empty string tables (no nodes, no labels) but a nonzero edge count
	// whose adjacency columns cannot line up.
	w.U32(0)
	snapio.I32Col(w, []int32(nil))
	w.U32(0)
	w.U32(0)
	snapio.I32Col(w, []int32(nil))
	w.U32(0)
	w.U64(uint64(g.NumEdges()))
	for i := 0; i < 2; i++ { // out and in directions
		snapio.I32Col(w, []int32(nil))                // degrees (0 nodes)
		snapio.I32Col(w, make([]int32, g.NumEdges())) // labels
		snapio.I32Col(w, make([]int32, g.NumEdges())) // nodes
	}
	_, err := ReadSnapshot(snapio.NewView(buf.Bytes()))
	if !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotInteriorChecksOwnedOnly: an arc pointing past the node range
// is caught by the interior scan over owned bytes, and skipped over a
// mapping, whose CRC check (one layer up) is the trust boundary — the scan
// would fault every column page into memory.
func TestSnapshotInteriorChecksOwnedOnly(t *testing.T) {
	raw := snapshotBytes(t, snapGraph())
	// The section ends with the in-direction far-end column; its last
	// element is the final 4 bytes.
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], 1<<30)
	if _, err := ReadSnapshot(snapio.NewView(raw)); !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("owned bytes: err = %v, want ErrCorrupt", err)
	}

	path := filepath.Join(t.TempDir(), "g.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := snapio.OpenMap(path)
	if errors.Is(err, snapio.ErrMapUnsupported) {
		t.Skip("mmap unsupported on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	g, err := ReadSnapshot(m.View())
	if err != nil {
		t.Fatalf("mapped bytes: %v (the interior scan must be skipped)", err)
	}
	if !g.Borrowed() {
		t.Error("graph read from a mapping does not report Borrowed")
	}
}
