//go:build linux

package main

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"gqbe"
)

// A pool that has drifted from the code must fail here, not silently move a
// workload: every light and heavy entry's row count is re-derived exactly.
// (Blowup entries take seconds each; their class only needs ">= 2M rows".)
func TestPoolsMatchTheCode(t *testing.T) {
	t.Parallel()
	pools, err := loadPools()
	if err != nil {
		t.Fatal(err)
	}
	kg := generateGraph()
	cands := candidates(kg)
	if len(cands) != len(pools.Entries) {
		t.Fatalf("pools.json has %d entries, the graph yields %d candidates; run `bench calibrate`", len(pools.Entries), len(cands))
	}
	bld := gqbe.NewBuilder()
	kg.Graph.EdgesAsTriples(func(s, p, o string) { bld.Add(s, p, o) })
	eng, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumEntities() != pools.Nodes || eng.NumFacts() != pools.Edges {
		t.Fatalf("graph is %d nodes / %d edges, pools.json was calibrated on %d / %d",
			eng.NumEntities(), eng.NumFacts(), pools.Nodes, pools.Edges)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				e := pools.Entries[i]
				rows, nodes, err := measureRows(context.Background(), eng, e.Tuples)
				if err != nil {
					t.Errorf("%s: %v", e.ID, err)
					continue
				}
				if rows != e.Rows || nodes != e.Nodes || classify(rows) != e.Class {
					t.Errorf("%s: code gives rows=%d nodes=%d (%s), pools.json has rows=%d nodes=%d (%s); run `bench calibrate`",
						e.ID, rows, nodes, classify(rows), e.Rows, e.Nodes, e.Class)
				}
			}
		}()
	}
	for i, e := range pools.Entries {
		if e.ID != cands[i].ID {
			t.Errorf("entry %d is %s, candidate %d is %s", i, e.ID, i, cands[i].ID)
		}
		if e.Class == classLight || e.Class == classHeavy {
			work <- i
		}
	}
	close(work)
	wg.Wait()
}

// The workloads' fixed shapes, so an edit to a class boundary or a pool shows
// up as a changed number here and in the README, not as a silent shift.
func TestWorkloadShapes(t *testing.T) {
	pools, err := loadPools()
	if err != nil {
		t.Fatal(err)
	}
	light, _ := findWorkload("lib-light")
	heavy, _ := findWorkload("lib-heavy")
	hot, _ := findWorkload("serve-hot")
	cold, _ := findWorkload("serve-cold")
	lp := libPass(light, pools, false)
	two := 0
	for _, o := range lp {
		if len(o.Entry.Tuples) == 2 {
			two++
		}
		if o.Entry.Class != classLight || o.Entry.Rows >= libLightMaxRows {
			t.Errorf("lib-light holds %s (%s, %d rows)", o.Entry.ID, o.Entry.Class, o.Entry.Rows)
		}
	}
	if share := float64(two) / float64(len(lp)); share < 0.2 || share > 0.3 {
		t.Errorf("two-tuple ops are %.0f%% of a lib-light pass, want about a quarter", share*100)
	}
	blow := 0
	for _, o := range libPass(heavy, pools, false) {
		switch o.Entry.Class {
		case classBlowup:
			blow++
		case classHeavy:
		default:
			t.Errorf("lib-heavy holds %s (%s)", o.Entry.ID, o.Entry.Class)
		}
	}
	if blow != 1 {
		t.Errorf("lib-heavy pass holds %d blowup ops, want 1", blow)
	}
	hs := newStream(hot, pools, 1, false)
	if n := len(hs.keys); n < 80 || n > 128 {
		t.Errorf("serve-hot has %d keys, want about a hundred (they must fit the 1024-entry cache)", n)
	}
	cs := newStream(cold, pools, 1, false)
	seen := map[string]bool{}
	for i := 0; i < 30*cs.cycleLen(); i++ {
		o := cs.at(i)
		if o.Entry.Class == classBlowup {
			t.Fatalf("cold stream holds the blowup tuple %s", o.Entry.ID)
		}
		if seen[opKey(o)] {
			t.Fatalf("cold stream repeats key %s at request %d", opKey(o), i)
		}
		seen[opKey(o)] = true
	}
	// fleet-cold is serve-cold's stream, byte for byte.
	fleet, _ := findWorkload("fleet-cold")
	fs := newStream(fleet, pools, 1, false)
	for i := 0; i < 2*cs.cycleLen(); i++ {
		if a, b := cs.at(i), fs.at(i); string(a.body()) != string(b.body()) {
			t.Fatalf("request %d differs between serve-cold and fleet-cold", i)
		}
	}
}
