package topk

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/mqg"
	"gqbe/internal/neighborhood"
)

const (
	frontGoldenPath = "testdata/front_golden.json"
	frontAllocsPath = "testdata/front_allocs.json"
)

// frontEntry pins one golden operation's front half by FNV-64a hashes of
// ordered edge lists, so that any change to which edges the neighborhood
// and MQG stages return, or to their order, weights or depths, shows up.
type frontEntry struct {
	ID string `json:"id"`
	// Ht and Reduced hold, per tuple, the hashes of H_t's and H'_t's edge
	// lists at path-length threshold d = 2, then at d = 3.
	Ht      []string `json:"ht"`
	Reduced []string `json:"reduced"`
	// MQG holds, per tuple, the hash of the MQG discovered at d = 2 and
	// r = 15 (edges, weight bits and depths), then, for a multi-tuple
	// entry, the hash of the merged MQG.
	MQG []string `json:"mqg"`
}

// edgeHash renders the FNV-64a hash of an edge list, each edge optionally
// followed by its weight bits and depth.
func edgeHash(edges []graph.Edge, weights []float64, depths []int) string {
	h := fnv.New64a()
	var buf [28]byte
	for i, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.Src))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.Label))
		binary.LittleEndian.PutUint32(buf[8:], uint32(e.Dst))
		n := 12
		if weights != nil {
			binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(weights[i]))
			binary.LittleEndian.PutUint64(buf[20:], uint64(depths[i]))
			n = 28
		}
		h.Write(buf[:n])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func mqgHash(m *mqg.MQG) string { return edgeHash(m.Sub.Edges, m.Weights, m.Depths) }

// frontGolden runs one golden operation's front half and hashes its output.
func frontGolden(t *testing.T, op goldenEntry) frontEntry {
	t.Helper()
	ctx := context.Background()
	out := frontEntry{ID: op.ID}
	var mqgs []*mqg.MQG
	for _, names := range op.Tuples {
		tuple, err := kgDS.Tuple(names)
		if err != nil {
			t.Fatalf("%s: %v", op.ID, err)
		}
		for _, d := range []int{2, 3} {
			nres, err := neighborhood.ExtractCtx(ctx, kgDS.Graph, tuple, d)
			if err != nil {
				t.Fatalf("%s at d %d: %v", op.ID, d, err)
			}
			out.Ht = append(out.Ht, edgeHash(nres.Ht.Edges, nil, nil))
			out.Reduced = append(out.Reduced, edgeHash(nres.Reduced.Edges, nil, nil))
			if d == 2 {
				m, err := mqg.DiscoverCtx(ctx, kgEst, nres.Reduced, tuple, 15)
				if err != nil {
					t.Fatalf("%s: %v", op.ID, err)
				}
				out.MQG = append(out.MQG, mqgHash(m))
				mqgs = append(mqgs, m)
			}
			nres.Release()
		}
	}
	if len(mqgs) > 1 {
		m, err := mqg.MergeCtx(ctx, mqgs, 15)
		if err != nil {
			t.Fatalf("%s: %v", op.ID, err)
		}
		out.MQG = append(out.MQG, mqgHash(m))
	}
	return out
}

// readGolden loads a golden file written by writeGolden.
func readGolden[E any](t *testing.T, path string) []E {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []E
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFrontHalfGolden pins the edges the front half returns — H_t and H'_t
// at d = 2 and 3, each tuple's MQG and the merged MQG — in order, with the
// MQGs' weight bits and depths, on every operation of the search golden.
// Refresh with `go test ./internal/topk -run TestFrontHalfGolden -update`.
func TestFrontHalfGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 500 extractions on the kgsynth graph")
	}
	kgFixture()
	ops := readGolden[goldenEntry](t, goldenPath)
	got := make([]frontEntry, len(ops))
	for i, op := range ops {
		got[i] = frontGolden(t, op)
	}
	if *update {
		writeGolden(t, frontGoldenPath, got)
		return
	}
	want := readGolden[frontEntry](t, frontGoldenPath)
	if len(got) != len(want) {
		t.Fatalf("%d operations, golden file has %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the golden file:\n want %s\n got  %s", want[i].ID, a, b)
		}
	}
}

// frontAllocs is the recorded allocation cost of the front half over the
// golden's light operations.
type frontAllocs struct {
	Operations  int    `json:"operations"`
	Extractions int    `json:"extractions"`
	Allocs      uint64 `json:"allocs"`
	Bytes       uint64 `json:"bytes"`
}

// lightIDs returns the IDs of the benchmark pool's light operations.
func lightIDs(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "pools.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pools struct {
		Entries []struct {
			ID    string `json:"id"`
			Class string `json:"class"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &pools); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, e := range pools.Entries {
		if e.Class == "light" {
			ids[e.ID] = true
		}
	}
	return ids
}

// TestFrontHalfAllocations gates the front half's heap allocations:
// ExtractCtx at d = 2, DiscoverCtx at r = 15 and, for multi-tuple
// operations, MergeCtx, summed over the golden's light operations. The
// count is the cheapest of five warm passes, since the extraction's pooled
// distance table is refilled after a GC. It fails above the recorded value
// plus 1 %; refresh with
// `go test ./internal/topk -run TestFrontHalfAllocations -update`.
func TestFrontHalfAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the front half of 201 operations six times")
	}
	if raceEnabled {
		t.Skip("the race detector drops a random share of sync.Pool puts, so allocation counts are not stable")
	}
	kgFixture()
	light := lightIDs(t)
	var ops [][][]graph.NodeID
	rec := frontAllocs{}
	for _, op := range readGolden[goldenEntry](t, goldenPath) {
		if !light[op.ID] {
			continue
		}
		var tuples [][]graph.NodeID
		for _, names := range op.Tuples {
			tuple, err := kgDS.Tuple(names)
			if err != nil {
				t.Fatalf("%s: %v", op.ID, err)
			}
			tuples = append(tuples, tuple)
		}
		ops = append(ops, tuples)
		rec.Operations++
		rec.Extractions += len(tuples)
	}
	ctx := context.Background()
	mqgs := make([]*mqg.MQG, 0, 8)
	pass := func() {
		for _, tuples := range ops {
			mqgs = mqgs[:0]
			for _, tuple := range tuples {
				nres, err := neighborhood.ExtractCtx(ctx, kgDS.Graph, tuple, 2)
				if err != nil {
					t.Fatal(err)
				}
				m, err := mqg.DiscoverCtx(ctx, kgEst, nres.Reduced, tuple, 15)
				nres.Release()
				if err != nil {
					t.Fatal(err)
				}
				mqgs = append(mqgs, m)
			}
			if len(mqgs) > 1 {
				if _, err := mqg.MergeCtx(ctx, mqgs, 15); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass()
	rec.Allocs, rec.Bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		rec.Allocs = min(rec.Allocs, after.Mallocs-before.Mallocs)
		rec.Bytes = min(rec.Bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("front half over %d light operations (%d extractions): %d allocs, %d B; per extraction %.1f allocs, %.1f KB",
		rec.Operations, rec.Extractions, rec.Allocs, rec.Bytes,
		float64(rec.Allocs)/float64(rec.Extractions), float64(rec.Bytes)/float64(rec.Extractions)/1024)
	if *update {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frontAllocsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(frontAllocsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want frontAllocs
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if rec.Operations != want.Operations || rec.Extractions != want.Extractions {
		t.Fatalf("measured %d operations (%d extractions), the record has %d (%d)", rec.Operations, rec.Extractions, want.Operations, want.Extractions)
	}
	if rec.Allocs > want.Allocs+want.Allocs/100 {
		t.Errorf("front half allocates %d times, more than the recorded %d plus 1 %%", rec.Allocs, want.Allocs)
	}
	if rec.Bytes > want.Bytes+want.Bytes/100 {
		t.Errorf("front half allocates %d B, more than the recorded %d B plus 1 %%", rec.Bytes, want.Bytes)
	}
}
