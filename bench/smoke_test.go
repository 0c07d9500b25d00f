//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every workload, untraced and traced, at 1/50 size: the run must succeed,
// answer correctly, emit exactly the names BENCHMARK.json promises, print the
// contract's object as its last line, and leave no child behind.
func TestQuickSmokeAllWorkloads(t *testing.T) {
	t.Parallel()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(runConfig{Root: root, Seed: 7, Seconds: defaultSeconds, Trace: trace, Quick: true}, w.Name)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, r.Correct, r.Attempted, r.Failed, r.FirstFailures)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, trace, len(r.Metrics), len(specs))
			}
			for _, m := range specs {
				if _, ok := r.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				}
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if m.Name == "cpu_ms_per_query" && w.Served {
						continue // a 1/50-size phase can fit inside one 10 ms tick of /proc CPU time
					}
					if r.Metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", w.Name, m.Name, r.Metrics[m.Name])
					}
				}
			}

			var out bytes.Buffer
			r.print(&out)
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the contract's object: %v", w.Name, trace, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: last line lacks a contract key: %s", w.Name, trace, lines[len(lines)-1])
			}
		}
	}
	live.Lock()
	left := len(live.set)
	live.Unlock()
	if left != 0 {
		t.Errorf("%d children still running after the runs returned", left)
	}
	entries, _ := os.ReadDir(filepath.Join(root, "bench", "out"))
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "work-") {
			t.Errorf("scratch directory bench/out/%s was not removed", e.Name())
		}
	}
}
