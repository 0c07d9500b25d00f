//go:build linux

package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gqbe"
	"gqbe/internal/kgsynth"
)

// Per-tuple cost on this graph spans 0.2 ms to 40 s and is governed by the
// rows the lattice search materializes, so an unclassified query mix
// measures which tuples were drawn, not the code. pools.json classifies
// every candidate by that row count — a deterministic property of the code
// and the graph — and the workloads draw from fixed classes.
const (
	classLight    = "light"    // under lightMaxRows: discovery costs at least as much as search
	classHeavy    = "heavy"    // up to blowupMinRows: search dominates, 2–170 ms
	classBlowup   = "blowup"   // the paper's F4/F19 join pathology: 0.15–4 s, still finishing under the guard
	classExcluded = "excluded" // hit the guard, or failed

	lightMaxRows   = 20_000
	blowupMinRows  = 1_000_000
	calibrateGuard = 5 * time.Second
	// candidateRows is how many leading rows of each F-query's table become
	// single-tuple candidates.
	candidateRows = 12
)

// poolEntry is one calibrated operation: one or two example tuples.
type poolEntry struct {
	ID     string     `json:"id"`
	Tuples [][]string `json:"tuples"`
	Class  string     `json:"class"`
	// Rows is the sum of NodeEval.Rows over the traced search at default
	// options; Nodes is the lattice nodes it evaluated.
	Rows  int `json:"rows"`
	Nodes int `json:"nodes_evaluated"`
}

type poolFile struct {
	Generator string      `json:"generator"`
	Seed      int64       `json:"seed"`
	Scale     float64     `json:"scale"`
	Nodes     int         `json:"nodes"`
	Edges     int         `json:"edges"`
	Entries   []poolEntry `json:"entries"`
}

//go:embed pools.json
var poolsJSON []byte

func loadPools() (*poolFile, error) {
	var p poolFile
	if err := json.Unmarshal(poolsJSON, &p); err != nil {
		return nil, fmt.Errorf("bench: pools.json: %w", err)
	}
	if p.Seed != graphSeed || p.Scale != graphScale {
		return nil, fmt.Errorf("bench: pools.json was calibrated for seed %d scale %g, the harness generates seed %d scale %g; run `bench calibrate`",
			p.Seed, p.Scale, int64(graphSeed), graphScale)
	}
	found := false
	for _, e := range p.Entries {
		found = found || (e.ID == libHeavyBlowup && e.Class == classBlowup)
	}
	if !found {
		return nil, fmt.Errorf("bench: pools.json has no blowup entry %s; pick lib-heavy's blowup op again (ops.go)", libHeavyBlowup)
	}
	return &p, nil
}

func (p *poolFile) class(c string) []poolEntry {
	var out []poolEntry
	for _, e := range p.Entries {
		if e.Class == c {
			out = append(out, e)
		}
	}
	return out
}

// candidates lists the operations calibration considers: the first rows of
// every F-query as single tuples, plus two two-tuple operations per query.
func candidates(kg *kgsynth.Dataset) []poolEntry {
	var out []poolEntry
	for _, q := range kg.Queries {
		for i := 0; i < len(q.Table) && i < candidateRows; i++ {
			out = append(out, poolEntry{ID: fmt.Sprintf("%s/%d", q.ID, i), Tuples: [][]string{q.Table[i]}})
		}
		if len(q.Table) >= 4 {
			out = append(out,
				poolEntry{ID: q.ID + "/0+1", Tuples: [][]string{q.Table[0], q.Table[1]}},
				poolEntry{ID: q.ID + "/2+3", Tuples: [][]string{q.Table[2], q.Table[3]}})
		}
	}
	return out
}

// measureRows runs one operation under the engine's own tracer and returns
// the rows its search materialized and the nodes it evaluated.
func measureRows(ctx context.Context, eng *gqbe.Engine, tuples [][]string) (rows, nodes int, err error) {
	tr := gqbe.NewTracer()
	res, err := eng.QueryMultiCtx(ctx, tuples, &gqbe.Options{Tracer: tr})
	if err != nil {
		return 0, 0, err
	}
	for _, ev := range tr.NodeEvals() {
		rows += ev.Rows
	}
	return rows, res.Stats.NodesEvaluated, nil
}

func classify(rows int) string {
	switch {
	case rows < lightMaxRows:
		return classLight
	case rows < blowupMinRows:
		return classHeavy
	default:
		return classBlowup
	}
}

// calibrate regenerates pools.json for the current code and graph constants.
func calibrate(root string) error {
	d, err := newDataset(root)
	if err != nil {
		return err
	}
	defer d.close()
	eng, err := gqbe.LoadFile(d.tsv)
	if err != nil {
		return err
	}
	out := poolFile{
		Generator: "kgsynth.Freebase", Seed: graphSeed, Scale: graphScale,
		Nodes: eng.NumEntities(), Edges: eng.NumFacts(),
	}
	counts := map[string]int{}
	for _, c := range candidates(d.kg) {
		ctx, cancel := context.WithTimeout(context.Background(), calibrateGuard)
		start := time.Now()
		rows, nodes, err := measureRows(ctx, eng, c.Tuples)
		cancel()
		c.Rows, c.Nodes, c.Class = rows, nodes, classify(rows)
		if err != nil {
			c.Rows, c.Nodes, c.Class = 0, 0, classExcluded
		}
		counts[c.Class]++
		fmt.Printf("%-9s %-8s rows=%-9d nodes=%-5d %v\n", c.ID, c.Class, c.Rows, c.Nodes, time.Since(start).Round(10*time.Microsecond))
		out.Entries = append(out.Entries, c)
	}
	// One entry per line, so a recalibration reads as a line diff.
	var buf bytes.Buffer
	entries := out.Entries
	out.Entries = nil
	head, err := json.Marshal(out)
	if err != nil {
		return err
	}
	buf.Write(bytes.TrimSuffix(head, []byte("null}")))
	buf.WriteString("[\n")
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf.WriteByte(' ')
		buf.Write(line)
		if i < len(entries)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	path := filepath.Join(root, "bench", "pools.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("%s: %d\n", c, counts[c])
	}
	fmt.Println("wrote", path)
	return nil
}
