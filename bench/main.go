//go:build linux

// Command bench is the repository's benchmark: five workloads from a library
// call to a sharded fleet, seven end-to-end metrics with fixed regression
// bounds, and a traced run that times every layer from this package's own
// spans. README.md beside this file is the manual; BENCHMARK.json at the
// repository root is the contract the driver checks.
//
//	bench run --workload W --seed N --seconds S --trace 0|1   one workload, one process
//	bench all [-seed N] [-runs R] [-seconds S] [-quick]       every workload, each in its own process
//	bench trace -workload W [-seed N]                         the traced run of W
//	bench calibrate                                           regenerate pools.json
//	bench compare A.json B.json                               verdict per (metric, workload)
//	bench spec                                                print BENCHMARK.json from spec.go
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "bench: refusing to measure a -race build; its timings describe the race detector")
		os.Exit(2)
	}
	if len(os.Args) < 2 {
		usage()
	}
	stopOnSignal()
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args)
	case "all":
		err = cmdAll(args)
	case "trace":
		err = cmdRun(append([]string{"--trace", "1"}, args...))
	case "calibrate":
		var root string
		if root, err = findRoot(); err == nil {
			err = calibrate(root)
		}
	case "compare":
		err = cmdCompare(args)
	case "spec":
		err = writeBenchmarkJSON(os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run|all|trace|calibrate|compare ... (see bench/README.md)")
	os.Exit(2)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// cmdRun runs one workload in this process and prints its metrics; the last
// line of standard output is the contract's JSON object.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "orders sampling, the Zipf ranks, the k sequence and the arrival schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phases")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
	quick := fs.Bool("quick", false, "1/50 size, for smoke tests; numbers mean nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	cfg := runConfig{Root: root, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick}
	r, err := runWorkload(cfg, *name)
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	return r.save(root)
}

// runWorkload dispatches one run. Children it starts are stopped and waited
// for before it returns, on every path.
func runWorkload(cfg runConfig, name string) (*result, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.Quick {
		cfg.Seconds /= quickDiv
	}
	pools, err := loadPools()
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.Trace:
		return runTraced(cfg, w, pools)
	case w.Served:
		return runServed(cfg, w, pools)
	default:
		return runLib(cfg, w, pools)
	}
}
