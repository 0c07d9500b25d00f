//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Root    string
	Seed    int64
	Seconds float64
	Trace   bool
	Quick   bool
}

// environment is recorded with every result so numbers from different boxes
// or toolchains are never compared by accident.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment(root string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// result is everything one run measured.
type result struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Quick     bool        `json:"quick,omitempty"`
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	// Valid is false when the numbers measure the generator or the
	// scheduler instead of the program; Invalid says why.
	Valid   bool     `json:"valid"`
	Invalid []string `json:"invalid,omitempty"`
	// Metrics holds the contract's metrics for this run: every end-to-end
	// metric of an untraced run, every per-layer metric of a traced one.
	Metrics map[string]float64 `json:"metrics"`
	// Notes are read beside the metrics but are not part of the contract:
	// the tail percentile used, sample counts, failed_share, generator load.
	Notes map[string]float64 `json:"notes"`
	// FirstFailures keeps a few failure messages for the reader.
	FirstFailures []string `json:"first_failures,omitempty"`
}

func newResult(cfg runConfig, w workload) *result {
	return &result{
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Quick: cfg.Quick,
		Env: currentEnvironment(cfg.Root), Valid: true,
		Metrics: map[string]float64{}, Notes: map[string]float64{},
	}
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.FirstFailures) < 5 {
		r.FirstFailures = append(r.FirstFailures, fmt.Sprintf(format, args...))
	}
}

func (r *result) invalidate(format string, args ...any) {
	r.Valid = false
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *result) specs() []metricSpec {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// finish fills in what every run reports the same way.
func (r *result) finish() {
	r.Correct = r.Failed == 0
	if r.Attempted > 0 {
		r.Notes["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	}
	for _, m := range r.specs() {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Metrics[m.Name] = 0 // a layer this workload never enters
		}
	}
}

// print writes every metric as `name value unit`, then the notes, then the
// contract's one-line JSON object as the last line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for _, m := range r.specs() {
		fmt.Fprintf(w, "%s %v %s\n", m.Name, r.Metrics[m.Name], m.Unit)
		metrics[m.Name] = valueUnit{r.Metrics[m.Name], m.Unit}
	}
	for _, k := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "note %s %v\n", k, r.Notes[k])
	}
	for _, f := range r.FirstFailures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "invalid %s\n", why)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// save writes the full record under bench/out for `bench compare`.
func (r *result) save(root string) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", r.Workload, r.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
