package topk

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/storage"
)

// shardSweep is the oracle's shard axis, matching the fleet sizes the router
// oracle exercises.
var shardSweep = []int{2, 4, 8}

// mergeShardAnswers is the reference merge the fleet router implements over
// HTTP: concatenate the per-shard top-k lists, order by (Score desc, tie-key
// asc), cut to k. Keeping a copy here pins the contract at the layer that
// guarantees it, independent of the serving stack.
func mergeShardAnswers(parts [][]Answer, k int) []Answer {
	var all []Answer
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return TupleKey(all[i].Tuple) < TupleKey(all[j].Tuple)
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// checkShardOracle proves the answer-space sharding contract on one search
// case: every shard runs the identical trajectory (all non-answer Result
// fields equal the unsharded run's), per-shard answers are disjointly owned,
// and the reference merge reconstructs the unsharded ranking bit for bit.
func checkShardOracle(t *testing.T, name string, store *storage.Store, lat *lattice.Lattice, exclude [][]graph.NodeID, opts Options) {
	t.Helper()
	opts.ShardIndex, opts.ShardCount = 0, 0
	want, err := SearchCtx(context.Background(), store, lat, exclude, opts)
	if err != nil {
		t.Fatalf("%s: unsharded search: %v", name, err)
	}
	filled := opts
	filled.Fill()
	for _, n := range shardSweep {
		parts := make([][]Answer, n)
		for i := 0; i < n; i++ {
			opts.ShardIndex, opts.ShardCount = i, n
			got, err := SearchCtx(context.Background(), store, lat, exclude, opts)
			if err != nil {
				t.Fatalf("%s: shard %d/%d: %v", name, i, n, err)
			}
			// The trajectory must not depend on shard identity: every counter
			// and the stop disposition match the unsharded run exactly.
			wc, gc := *want, *got
			wc.Answers, gc.Answers = nil, nil
			if !reflect.DeepEqual(wc, gc) {
				t.Errorf("%s: shard %d/%d counters differ from unsharded:\n want %+v\n got  %+v", name, i, n, wc, gc)
			}
			for _, a := range got.Answers {
				if owner := OwnerShard(a.Tuple[0], n); owner != i {
					t.Errorf("%s: shard %d/%d returned tuple %v owned by shard %d", name, i, n, a.Tuple, owner)
				}
			}
			parts[i] = got.Answers
		}
		merged := mergeShardAnswers(parts, filled.K)
		if !reflect.DeepEqual(merged, want.Answers) {
			t.Errorf("%s: %d-shard merge differs from unsharded top-k:\n want %+v\n got  %+v", name, n, want.Answers, merged)
		}
	}
}

func TestShardOracleFig1(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tuple []string
		opts  Options
	}{
		{"default-k", []string{"Jerry Yang", "Yahoo!"}, Options{K: 10}},
		{"exhaustive", []string{"Jerry Yang", "Yahoo!"}, Options{K: 1000, KPrime: 1000}},
		{"tiny-kprime", []string{"Jerry Yang", "Yahoo!"}, Options{K: 1, KPrime: 1}},
		{"max-evaluations", []string{"Jerry Yang", "Yahoo!"}, Options{K: 1000, KPrime: 1000, MaxEvaluations: 3}},
		{"row-budget", []string{"Jerry Yang", "Yahoo!"}, Options{K: 10, MaxRows: 8}},
		{"single-entity", []string{"Stanford"}, Options{K: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, store, lat, exclude := pipeline(t, tc.tuple...)
			checkShardOracle(t, tc.name, store, lat, exclude, tc.opts)
		})
	}
}

// TestShardOracleKGSynth is the realistic-graph half: the kgsynth Freebase
// workload queries at K=25, where the stage-1 pool is big enough that every
// shard owns a non-trivial slice.
func TestShardOracleKGSynth(t *testing.T) {
	if testing.Short() {
		t.Skip("kgsynth graph build in -short mode")
	}
	kgFixture()
	for _, id := range kgQuery {
		t.Run(id, func(t *testing.T) {
			checkShardOracle(t, id, kgSt, kgLats[id],
				[][]graph.NodeID{kgTups[id]}, Options{K: 25})
		})
	}
}

// TestOwnerShardPartition pins the ownership function: total (every node
// owned), disjoint (exactly one owner), stable (the documented SplitMix64
// values — shard assignment is part of the fleet manifest contract and must
// never drift between releases).
func TestOwnerShardPartition(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		counts := make([]int, n)
		for id := graph.NodeID(0); id < 4096; id++ {
			o := OwnerShard(id, n)
			if o < 0 || o >= n {
				t.Fatalf("OwnerShard(%d, %d) = %d, outside [0,%d)", id, n, o, n)
			}
			counts[o]++
		}
		if n > 1 {
			for i, c := range counts {
				// SplitMix64 spreads 4096 sequential IDs close to uniformly;
				// a shard at under half its fair share means the mixer broke.
				if c < 4096/n/2 {
					t.Errorf("shard %d/%d owns %d of 4096 nodes — assignment badly skewed", i, n, c)
				}
			}
		}
	}
	// Golden values: a change here breaks every existing fleet manifest.
	for _, g := range []struct {
		id    graph.NodeID
		count int
		want  int
	}{
		{0, 2, int(splitmix64(0) % 2)},
		{1, 4, int(splitmix64(1) % 4)},
		{12345, 8, int(splitmix64(12345) % 8)},
	} {
		if got := OwnerShard(g.id, g.count); got != g.want {
			t.Errorf("OwnerShard(%d, %d) = %d, want %d", g.id, g.count, got, g.want)
		}
	}
}
