// Command kgshard is the offline fleet partitioner: it cuts one knowledge
// graph into N per-shard engine snapshots plus a fleet manifest, ready for N
// gqbed daemons fronted by a gqberouter.
//
// Usage:
//
//	kgshard -graph kg.tsv -shards 4 -out fleet/
//	kgshard -snapshot kg.snap -shards 2 -out fleet/
//
// The fleet is answer-space sharded: every shard snapshot holds the FULL
// graph (co-located daemons share the resident pages via -snapshot-mmap, so
// the duplication costs disk, not memory) and differs only in the recorded
// shard identity, which makes its engine keep answers whose pivot entity it
// owns. Each shard therefore runs the identical search trajectory, the
// per-shard top-k lists partition the single-node top-k, and the router's
// (score desc, tie asc) merge reconstructs it bit for bit — the property the
// oracle suites in internal/topk and internal/router pin.
//
// Output is deterministic: the same input, cut from -graph or from its
// -snapshot, yields byte-identical shard snapshots and manifest, so fleets
// can be rebuilt and diffed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gqbe"
	"gqbe/internal/fleet"
)

func main() {
	var (
		graphPath    = flag.String("graph", "", "path to the knowledge graph (TSV triples)")
		snapshotPath = flag.String("snapshot", "", "existing engine snapshot to partition instead of -graph")
		shards       = flag.Int("shards", 0, "number of shards to cut (required, >= 1)")
		outDir       = flag.String("out", "", "output directory for shard snapshots and fleet.json (required)")
	)
	flag.Parse()
	if err := run(*graphPath, *snapshotPath, *shards, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "kgshard: %v\n", err)
		os.Exit(1)
	}
}

// run cuts the fleet; factored out of main for the golden tests.
func run(graphPath, snapshotPath string, shards int, outDir string) error {
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", shards)
	}
	if outDir == "" {
		return fmt.Errorf("-out is required")
	}
	if (graphPath == "") == (snapshotPath == "") {
		return fmt.Errorf("exactly one of -graph and -snapshot is required")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	start := time.Now()
	var eng *gqbe.Engine
	var err error
	if snapshotPath != "" {
		eng, err = gqbe.LoadSnapshotFile(snapshotPath)
	} else {
		eng, err = gqbe.LoadFile(graphPath)
	}
	if err != nil {
		return err
	}
	fmt.Printf("kgshard: %d entities, %d facts loaded in %v\n",
		eng.NumEntities(), eng.NumFacts(), time.Since(start).Round(time.Millisecond))

	paths := make([]string, shards)
	for i := 0; i < shards; i++ {
		sh := eng
		if shards > 1 {
			if sh, err = eng.WithShard(i, shards); err != nil {
				return err
			}
		}
		paths[i] = filepath.Join(outDir, fmt.Sprintf("shard-%d.snap", i))
		if err := sh.WriteSnapshotFile(paths[i]); err != nil {
			return err
		}
		fmt.Printf("kgshard: wrote %s\n", paths[i])
	}

	m, err := fleet.New(paths, eng.NumEntities(), eng.NumFacts())
	if err != nil {
		return err
	}
	manifestPath := filepath.Join(outDir, "fleet.json")
	if err := m.Write(manifestPath); err != nil {
		return err
	}
	fmt.Printf("kgshard: %d shard(s) + %s in %v\n",
		shards, manifestPath, time.Since(start).Round(time.Millisecond))
	return nil
}
