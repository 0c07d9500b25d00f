// Snapshot section: the store's CSR columns serialized flat, so a restart
// loads the fully indexed vertical partition with large sequential reads —
// no re-partitioning, no sorting, no offset reconstruction.
//
// Layout per store (all values via internal/snapio):
//
//	u32 numLabels (table count), u64 numEdges
//	per table, in label order:
//	  u32 flags            — bit0: subject direction dense, bit1: object
//	  i32col pairSubj      — pairs sorted by (subj, obj), subject column
//	  i32col objCol        — forward posting payload; objCol[i] is by
//	                         construction pairs[i].Obj, so it doubles as
//	                         the pair object column on load
//	  i32col subjCol       — mirror posting payload ((obj, subj) order)
//	  [dense subj]  i32 subjBase, i32col subjOff
//	  [dense obj]   i32 objBase,  i32col objOff
//	  [sparse obj]  i32col objKeys
//
// The dense/sparse decision is data-dependent (see dense()); persisting it
// via the flags byte means the loaded store probes identically to the built
// one even if the heuristic constants change between binaries.
//
// A sparse subject direction stores no keys column at all: its bisection
// keys are definitionally the pairSubj column (same values, same order), so
// the loader aliases that instead — one column fewer on disk and in memory.
// Every value here is a 4-byte unit, so with the section 4-aligned at its
// start (internal/core frames it that way) each column is castable in place
// by the zero-copy decoder.
package storage

import (
	"fmt"

	"gqbe/internal/graph"
	"gqbe/internal/snapio"
)

const (
	flagSubjDense = 1 << 0
	flagObjDense  = 1 << 1
)

// AppendSnapshot writes s's snapshot section to w.
func (s *Store) AppendSnapshot(w *snapio.Writer) error {
	w.U32(uint32(s.numLabels))
	w.U64(uint64(s.numEdges))
	for _, t := range s.tables {
		var flags uint32
		if t.subjOff != nil {
			flags |= flagSubjDense
		}
		if t.objOff != nil {
			flags |= flagObjDense
		}
		w.U32(flags)
		snapio.I32Col(w, t.pairSubj)
		snapio.I32Col(w, t.objCol)
		snapio.I32Col(w, t.subjCol)
		if t.subjOff != nil {
			w.I32(int32(t.subjBase))
			snapio.I32Col(w, t.subjOff)
		}
		if t.objOff != nil {
			w.I32(int32(t.objBase))
			snapio.I32Col(w, t.objOff)
		} else {
			snapio.I32Col(w, t.objKeys)
		}
	}
	return w.Err()
}

// ReadSnapshot reads a snapshot section written by AppendSnapshot. The
// columns land directly in the table slices as views of r's bytes, owned or
// mapped, and no sorting or index construction runs.
func ReadSnapshot(r *snapio.ViewReader) (*Store, error) {
	numLabels := int(r.U32())
	numEdges := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if numLabels < 0 || numLabels >= snapio.MaxElems || numEdges >= snapio.MaxElems {
		return nil, fmt.Errorf("%w: store shape (%d labels, %d edges)", snapio.ErrCorrupt, numLabels, numEdges)
	}
	s := &Store{
		tables:    make([]*Table, numLabels),
		numEdges:  int(numEdges),
		numLabels: numLabels,
	}
	total := 0
	for l := 0; l < numLabels; l++ {
		flags := r.U32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		t := &Table{label: graph.LabelID(l)}
		t.pairSubj = snapio.ReadI32Col[graph.NodeID](r)
		t.objCol = snapio.ReadI32Col[graph.NodeID](r)
		t.subjCol = snapio.ReadI32Col[graph.NodeID](r)
		if flags&flagSubjDense != 0 {
			t.subjBase = graph.NodeID(r.I32())
			t.subjOff = snapio.ReadI32Col[int32](r)
		} else {
			t.subjKeys = t.pairSubj // sparse keys are the row subject column
		}
		if flags&flagObjDense != 0 {
			t.objBase = graph.NodeID(r.I32())
			t.objOff = snapio.ReadI32Col[int32](r)
		} else {
			t.objKeys = snapio.ReadI32Col[graph.NodeID](r)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(t.objCol) != len(t.pairSubj) || len(t.subjCol) != len(t.pairSubj) {
			return nil, fmt.Errorf("%w: table %d column shape mismatch", snapio.ErrCorrupt, l)
		}
		total += t.Len()
		s.tables[l] = t
	}
	if total != s.numEdges {
		return nil, fmt.Errorf("%w: table rows %d != edge count %d", snapio.ErrCorrupt, total, s.numEdges)
	}
	return s, nil
}
