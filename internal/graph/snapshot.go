// Snapshot section: the data graph serialized as flat columns, so a restart
// skips triple parsing, name interning from text, and adjacency sorting.
//
// Layout (all values via internal/snapio; lengths prefix every column):
//
//	string table: u32 count, i32col of count+1 cumulative byte offsets
//	              (first 0, last = blob length), length-prefixed blob of all
//	              names concatenated, zero-padded to a 4-byte boundary.
//	              Offsets rather than lengths so a mapped load can keep the
//	              borrowed offsets column and blob as-is and slice entries
//	              out lazily — no O(count) allocation or scan at open; heap
//	              loads materialize []string entries up front.
//	(same shape for labels)
//	u64 numEdges
//	out adjacency: i32col of numNodes+1 cumulative arc offsets (first 0,
//	               last numEdges — the CSR offset table verbatim), i32col
//	               arc labels, i32col arc far ends (numEdges each,
//	               concatenated in node order)
//	in adjacency:  same three columns
//
// Both adjacency directions are stored even though one is a permutation of
// the other: +8 bytes per edge on disk buys a load path that only slices
// flat arenas — no counting sort, no per-node re-sort — which is the point
// of a snapshot. The edge dedup set is not rebuilt at all (see Graph.edges).
//
// Zero-copy guarantee: the string blobs are the only variable-width values;
// padding them back to 4-byte alignment keeps every i32 column 4-aligned
// relative to the file start, so the decoder (snapio.ViewReader) can
// reinterpret column bytes as []int32 in place, over owned or mapped bytes
// alike. The loaded adjacency is the frozen CSR form either way: the
// on-disk offset column is the CSR offset table verbatim over the
// label/far-end columns, so a mapped open does no per-node work at all —
// O(sections) allocations, O(1) per column.
package graph

import (
	"fmt"

	"gqbe/internal/snapio"
)

// writeStringTable emits the blob-backed string column of the n strings
// at(0..n-1). Lengths and blob are streamed, and every length prefix is
// bounds-checked on the way out (Writer.Len fails with ErrTooLarge), so an
// oversized table fails the write instead of producing a file every load
// would reject.
func writeStringTable(w *snapio.Writer, n int, at func(int) string) {
	w.Len(n)
	c := w.StartI32Col(n + 1)
	total := 0
	c.Add(0)
	for i := 0; i < n; i++ {
		total += len(at(i))
		c.Add(int32(total))
	}
	if c.Close() != nil {
		return
	}
	w.Len(total)
	for i := 0; i < n; i++ {
		w.RawString(at(i))
	}
	w.Align4()
}

// readStringTableView loads a string table's offsets column and blob without
// materializing entries: O(1) work past the column reads themselves, so a
// mapped open stays O(sections). Shape is validated at the edges (count,
// first and last offset); interior monotonicity is scanned only by
// readStringTable, which mapped sources skip for the name table — their
// CRC pass is the trust boundary, exactly as for the adjacency range scan
// below.
func readStringTableView(r *snapio.ViewReader) ([]int32, string) {
	n := r.Len()
	if r.Err() != nil {
		return nil, ""
	}
	off := snapio.ReadI32Col[int32](r)
	blob := r.String()
	r.Align4()
	if r.Err() != nil {
		return nil, ""
	}
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(blob) {
		r.Fail(fmt.Errorf("%w: string table shape", snapio.ErrCorrupt))
		return nil, ""
	}
	return off, blob
}

// readStringTable loads a string column eagerly, slicing every entry out of
// one backing string — the heap-load form, with every offset pair checked.
func readStringTable(r *snapio.ViewReader) []string {
	off, blob := readStringTableView(r)
	if r.Err() != nil || len(off) <= 1 {
		return nil
	}
	out := make([]string, len(off)-1)
	for i := range out {
		lo, hi := off[i], off[i+1]
		if lo < 0 || hi < lo || int(hi) > len(blob) {
			r.Fail(fmt.Errorf("%w: string table overrun", snapio.ErrCorrupt))
			return nil
		}
		out[i] = blob[lo:hi]
	}
	return out
}

// writeAdjacency emits one direction as degree/label/node columns. The
// columns are streamed straight off the adjacency (one extra pass per
// column instead of materializing numEdges-sized temporaries — at write
// time the graph is resident and a multi-GB host has no slack for
// throwaway copies of it).
func writeAdjacency(w *snapio.Writer, a *adjacency, numNodes, numEdges int) {
	c := w.StartI32Col(numNodes + 1)
	sum := 0
	c.Add(0)
	for v := 0; v < numNodes; v++ {
		sum += a.degree(NodeID(v))
		c.Add(int32(sum))
	}
	if c.Close() != nil {
		return
	}
	c = w.StartI32Col(numEdges)
	for v := 0; v < numNodes; v++ {
		for _, l := range a.arcs(NodeID(v)).Labels {
			c.Add(int32(l))
		}
	}
	if c.Close() != nil {
		return
	}
	c = w.StartI32Col(numEdges)
	for v := 0; v < numNodes; v++ {
		for _, n := range a.arcs(NodeID(v)).Nodes {
			c.Add(int32(n))
		}
	}
	c.Close()
}

// readAdjacency loads one direction as frozen CSR, preserving the written
// order. Shape (column lengths, degree sums) is always validated; the
// per-arc range scan is skipped for mapped sources, whose bytes are
// checksummed at open — touching every element there would fault the whole
// column into memory, defeating the point of mapping it. A CRC-valid file
// therefore defines the trust boundary for the mapped path.
func readAdjacency(r *snapio.ViewReader, numNodes, numLabels, numEdges int) adjacency {
	off := snapio.ReadI32Col[int32](r)
	lab := snapio.ReadI32Col[LabelID](r)
	dst := snapio.ReadI32Col[NodeID](r)
	if r.Err() != nil {
		return adjacency{}
	}
	if len(off) != numNodes+1 || len(lab) != numEdges || len(dst) != numEdges {
		r.Fail(fmt.Errorf("%w: adjacency column shape mismatch", snapio.ErrCorrupt))
		return adjacency{}
	}
	// The on-disk offset table IS the CSR offset table: all three columns
	// stay views of the input — no prefix-sum pass, no O(numNodes)
	// allocation. Edge checks are O(1); interior monotonicity is scanned
	// only for owned bytes, per the CRC trust boundary above.
	if off[0] != 0 || int(off[numNodes]) != numEdges {
		r.Fail(fmt.Errorf("%w: offset table endpoints", snapio.ErrCorrupt))
		return adjacency{}
	}
	if !r.Mapped() {
		for v := 0; v < numNodes; v++ {
			if off[v+1] < off[v] {
				r.Fail(fmt.Errorf("%w: offset table not monotone", snapio.ErrCorrupt))
				return adjacency{}
			}
		}
		for i := range lab {
			if int(dst[i]) < 0 || int(dst[i]) >= numNodes || int(lab[i]) < 0 || int(lab[i]) >= numLabels {
				r.Fail(fmt.Errorf("%w: arc out of range", snapio.ErrCorrupt))
				return adjacency{}
			}
		}
	}
	return adjacency{off: off, lab: lab, dst: dst}
}

// AppendSnapshot writes g's snapshot section to w. Arcs are written in the
// graph's current adjacency order, which the loaded graph reproduces
// exactly, so a sorted graph round-trips to a sorted graph.
func (g *Graph) AppendSnapshot(w *snapio.Writer) error {
	// Name, not g.names: a mapped graph keeps its names in the lazy
	// on-disk form and must re-serialize to the bytes it was read from.
	writeStringTable(w, g.NumNodes(), func(i int) string { return g.Name(NodeID(i)) })
	writeStringTable(w, len(g.labels), func(i int) string { return g.labels[i] })
	w.U64(uint64(g.numEdges))
	writeAdjacency(w, &g.out, g.NumNodes(), g.numEdges)
	writeAdjacency(w, &g.in, g.NumNodes(), g.numEdges)
	return w.Err()
}

// ReadSnapshot reads a snapshot section written by AppendSnapshot and
// reconstructs the graph in frozen CSR form. The big columns are zero-copy
// views of r's bytes; from a mapped source the name blob stays one too, and
// the graph reports Borrowed. Either way the name→ID index is deferred to
// first use — a mapped open must cost O(sections), not O(nodes).
func ReadSnapshot(r *snapio.ViewReader) (*Graph, error) {
	g := &Graph{borrowed: r.Mapped()}
	if r.Mapped() {
		// Keep the name table in its on-disk form: the offsets column and
		// blob are views of the mapping, and Name slices entries out on
		// demand — the O(numNodes) []string materialization is exactly the
		// cost a mapped open exists to avoid.
		g.nameOff, g.nameBlob = readStringTableView(r)
	} else {
		g.names = readStringTable(r)
	}
	g.labels = readStringTable(r)
	numEdges := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if numEdges >= snapio.MaxElems {
		return nil, fmt.Errorf("%w: %d edges", snapio.ErrCorrupt, numEdges)
	}
	g.numEdges = int(numEdges)
	g.labelByName = make(map[string]LabelID, len(g.labels))
	for i, l := range g.labels {
		g.labelByName[l] = LabelID(i)
	}
	numNodes := g.NumNodes()
	g.adjStart = r.Pos()
	g.out = readAdjacency(r, numNodes, len(g.labels), g.numEdges)
	g.in = readAdjacency(r, numNodes, len(g.labels), g.numEdges)
	g.adjEnd = r.Pos()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return g, nil
}
