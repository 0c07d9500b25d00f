//go:build linux

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by this harness around the
// layer's public entry point. Spans of one operation share Op; Parent is the
// ID of the span that caused this one, or -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the start of the traced run
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Op: op})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent, op int, start time.Time, dur time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: id, Name: name, Start: s, End: s + int64(dur), Parent: parent, Op: op})
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	t.spans[id].Parent = parent
	t.mu.Unlock()
}

// selfTimes returns, per span name, total duration and total self time: a
// span's duration minus the part of its interval its children cover.
// Children may overlap (two shard calls in flight), so their intervals are
// merged before they are subtracted.
func (t *tracer) selfTimes() (total, self map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range t.spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64
		end = s.Start
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		total[s.Name] += time.Duration(s.End - s.Start)
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return total, self
}

// flush writes the spans and the per-layer self times to
// bench/out/trace-<workload>.json.
func (t *tracer) flush(root, workload string, seed int64) error {
	total, self := t.selfTimes()
	toMS := func(m map[string]time.Duration) map[string]float64 {
		out := map[string]float64{}
		for k, v := range m {
			out[k] = ms(v)
		}
		return out
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		TotalMS  map[string]float64 `json:"total_ms"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, toMS(total), toMS(self), t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
