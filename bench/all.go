//go:build linux

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// runSet is what `bench all` writes and `bench compare` reads: every run of
// one invocation.
type runSet struct {
	Runs []*result `json:"runs"`
}

// cmdAll runs every workload — untraced, then traced — each in a process of
// its own, so set-up time, CPU and peak memory belong to one workload.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed of the first run")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phases")
	quick := fs.Bool("quick", false, "1/50 size smoke run")
	untracedOnly := fs.Bool("untraced-only", false, "skip the traced runs (A/A sets need only the end-to-end metrics)")
	out := fs.String("out", "", "where to write the set (default bench/out/all-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set runSet
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && *untracedOnly {
					continue
				}
				s := *seed + int64(i)
				cmd := exec.Command(self, "run", "--workload", w.Name, "--seed", fmt.Sprint(s),
					"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(trace), fmt.Sprintf("--quick=%v", *quick))
				cmd.Dir = root
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d trace %d: %w", w.Name, s, trace, err)
				}
				data, err := os.ReadFile(filepath.Join(root, "bench", "out",
					fmt.Sprintf("run-%s-seed%d-trace%d.json", w.Name, s, trace)))
				if err != nil {
					return err
				}
				var r result
				if err := json.Unmarshal(data, &r); err != nil {
					return err
				}
				set.Runs = append(set.Runs, &r)
			}
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(root, "bench", "out", fmt.Sprintf("all-seed%d.json", *seed))
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, r := range set.Runs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	return nil
}
