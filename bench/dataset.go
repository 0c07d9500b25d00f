//go:build linux

package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"gqbe"
	"gqbe/internal/kgsynth"
	"gqbe/internal/triples"
)

// The graph every workload runs on. Scale 10 was tried and dropped: 45 s
// queries and an OOM kill.
const (
	graphSeed  = 42
	graphScale = 1.0
)

func generateGraph() *kgsynth.Dataset {
	return kgsynth.Freebase(kgsynth.Config{Seed: graphSeed, Scale: graphScale})
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding the gqbe module and this benchmark. The driver starts
// the benchmark there; `go run -C bench .` starts it one level down.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module gqbe\n") {
			if _, err := os.Stat(filepath.Join(dir, "bench", "pools.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside a gqbe checkout (no go.mod with `module gqbe` beside bench/)")
		}
		dir = parent
	}
}

// buildChildren compiles the programs under test from the checkout's source
// into .bench_build/bin. The go command's own cache makes a repeat build a
// sub-second no-op.
func buildChildren(root string) (binDir string, err error) {
	binDir = filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/gqbed", "./cmd/gqberouter", "./cmd/kgshard")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building children: %v\n%s", err, out)
	}
	return binDir, nil
}

// dataset is the generated graph on disk, in the forms the programs under
// test load it from. Everything lives in one scratch directory inside the
// checkout that close removes.
type dataset struct {
	dir  string
	tsv  string
	snap string
	kg   *kgsynth.Dataset
}

func newDataset(root string) (*dataset, error) {
	base := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return nil, err
	}
	d := &dataset{dir: dir, tsv: filepath.Join(dir, "kg.tsv"), kg: generateGraph()}
	if err := triples.WriteStreamFile(d.tsv, d.kg.Graph); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *dataset) close() { os.RemoveAll(d.dir) }

// writeSnapshot builds the engine from the TSV and writes the snapshot the
// served workloads boot from.
func (d *dataset) writeSnapshot() error {
	eng, err := gqbe.LoadFile(d.tsv)
	if err != nil {
		return err
	}
	d.snap = filepath.Join(d.dir, "kg.snap")
	return eng.WriteSnapshotFile(d.snap)
}

// cutShards runs kgshard over the snapshot and returns the shard snapshot
// paths with the wall time of the cut.
func (d *dataset) cutShards(binDir string, shards int) ([]string, time.Duration, error) {
	out := filepath.Join(d.dir, "fleet")
	start := time.Now()
	cmd := exec.Command(filepath.Join(binDir, "kgshard"),
		"-snapshot", d.snap, "-shards", fmt.Sprint(shards), "-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("bench: kgshard: %v\n%s", err, msg)
	}
	took := time.Since(start)
	paths := make([]string, shards)
	for i := range paths {
		paths[i] = filepath.Join(out, fmt.Sprintf("shard-%d.snap", i))
	}
	return paths, took, nil
}
