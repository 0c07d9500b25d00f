//go:build linux

package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"
)

// op is one operation: a pool entry asked for its top k.
type op struct {
	Entry poolEntry
	K     int
}

// body is the POST /v1/query body for the op.
func (o op) body() []byte {
	req := struct {
		Tuple  []string   `json:"tuple,omitempty"`
		Tuples [][]string `json:"tuples,omitempty"`
		K      int        `json:"k"`
	}{K: o.K}
	if len(o.Entry.Tuples) == 1 {
		req.Tuple = o.Entry.Tuples[0]
	} else {
		req.Tuples = o.Entry.Tuples
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// libLightMaxRows narrows lib-light to the light tuples whose search is still
// cheaper than their discovery: from 5 000 to 20 000 rows the search already
// costs more, and the workload exists to isolate the front half.
const libLightMaxRows = 5_000

// libHeavyBlowup is the one blowup operation of a lib-heavy pass: 5.65 M
// joined rows in about 0.55 s. The pool's larger blowups run 1–4 s each; two
// of them made a pass 8–10 s, left a 20 s run two passes, and made every
// lib-heavy number the page-fault cost of four operations.
const libHeavyBlowup = "F7/9"

// quickDiv is how far -quick shrinks every workload: the smoke test runs
// all five in a few seconds.
const quickDiv = 50

// cheapest returns the n entries with the fewest rows (all when n <= 0).
func cheapest(entries []poolEntry, n int) []poolEntry {
	out := append([]poolEntry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rows < out[j].Rows })
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

func quickCut(entries []poolEntry, quick bool) []poolEntry {
	if !quick {
		return entries
	}
	n := len(entries) / quickDiv
	if n < 4 {
		n = 4
	}
	return cheapest(entries, n)
}

// libPass returns the operations of one closed-loop pass. Every pass of a
// workload is the same multiset, so passes — and runs on different seeds —
// do identical work; the seed only orders it.
//
// lib-light: every light single tuple under libLightMaxRows once and every
// such two-tuple entry twice, which makes two-tuple ops a quarter of the pass.
// lib-heavy: every heavy entry once plus libHeavyBlowup, 2% of the ops and a
// third of the time.
func libPass(w workload, pools *poolFile, quick bool) []op {
	var entries []poolEntry
	switch w.Name {
	case "lib-light":
		for _, e := range quickCut(pools.class(classLight), quick) {
			if e.Rows >= libLightMaxRows {
				continue
			}
			entries = append(entries, e)
			if len(e.Tuples) > 1 {
				entries = append(entries, e)
			}
		}
	case "lib-heavy":
		entries = quickCut(pools.class(classHeavy), quick)
		if !quick {
			for _, e := range pools.class(classBlowup) {
				if e.ID == libHeavyBlowup {
					entries = append(entries, e)
				}
			}
		}
	}
	ops := make([]op, len(entries))
	for i, e := range entries {
		ops[i] = op{Entry: e, K: 10}
	}
	return ops
}

func shuffled(ops []op, rng *rand.Rand) []op {
	out := append([]op(nil), ops...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stream yields a served workload's request sequence; request i is a pure
// function of (workload, seed, i), so the open and saturation phases, the
// traced run and fleet-cold beside serve-cold all see one stream.
type stream struct {
	hot   bool
	keys  []op // hot: the key set, in Zipf rank order
	zipf  []int
	cycle []poolEntry // cold: the population one cycle covers once
	seed  int64
	perms map[int][]int
	koff  []int
}

// hotDraws bounds the precomputed Zipf sequence; a run sends far fewer.
const hotDraws = 1 << 20

func newStream(w workload, pools *poolFile, seed int64, quick bool) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{hot: w.Hot, seed: seed}
	if w.Hot {
		// Only heavy tuples: their searches take well over the cache's 1 ms
		// admission floor, so every key is admitted on first touch. Light
		// results are never cached (cache_skipped_fast) and would turn a
		// cache-hit workload into an engine one.
		for _, e := range quickCut(pools.class(classHeavy), quick) {
			s.keys = append(s.keys, op{Entry: e, K: 10}, op{Entry: e, K: 20})
		}
		rng.Shuffle(len(s.keys), func(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] })
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(s.keys)-1))
		n := hotDraws
		if quick {
			n /= quickDiv
		}
		s.zipf = make([]int, n)
		for i := range s.zipf {
			s.zipf[i] = int(z.Uint64())
		}
		return s
	}
	s.cycle = quickCut(append(pools.class(classLight), pools.class(classHeavy)...), quick)
	s.perms = map[int][]int{}
	s.koff = make([]int, len(s.cycle))
	for i := range s.koff {
		s.koff[i] = rng.Intn(25)
	}
	return s
}

// cycleLen is the number of requests after which the cold stream has sent
// every tuple of its population exactly once more (0 for the hot stream).
func (s *stream) cycleLen() int { return len(s.cycle) }

// at returns request i. Cold keys never repeat: cycle c asks entry e for
// k = 1 + (koff[e]+c) mod 25, moving to 26..50 once 25 cycles are used up.
// Not safe for concurrent use.
func (s *stream) at(i int) op {
	if s.hot {
		return s.keys[s.zipf[i%len(s.zipf)]]
	}
	n := len(s.cycle)
	c := i / n
	perm, ok := s.perms[c]
	if !ok {
		perm = s.cycleOrder(rand.New(rand.NewSource(s.seed ^ int64(c+1)*0x9e3779b9)))
		s.perms[c] = perm
	}
	e := perm[i%n]
	return op{Entry: s.cycle[e], K: 1 + (s.koff[e]+c)%25 + 25*(c/25)}
}

// cycleOrder returns the order one cycle visits the population in: a seeded
// shuffle of the light tuples with the heavy ones, themselves shuffled,
// spread evenly through it from a seeded offset. A plain shuffle of 49 heavy
// among 250 leaves it to the seed how many 100 ms searches arrive back to
// back, and on two cores that luck, not the code, set the tail.
func (s *stream) cycleOrder(rng *rand.Rand) []int {
	var light, heavy []int
	for i, e := range s.cycle {
		if e.Class == classHeavy {
			heavy = append(heavy, i)
		} else {
			light = append(light, i)
		}
	}
	rng.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
	rng.Shuffle(len(heavy), func(i, j int) { heavy[i], heavy[j] = heavy[j], heavy[i] })
	n := len(s.cycle)
	order := make([]int, 0, n)
	offset := rng.Float64()
	for pos, h := 0, 0; pos < n; pos++ {
		if h < len(heavy) && pos == int((float64(h)+offset)*float64(n)/float64(len(heavy))) {
			order = append(order, heavy[h])
			h++
		} else if len(light) > 0 {
			order = append(order, light[0])
			light = light[1:]
		} else {
			order = append(order, heavy[h])
			h++
		}
	}
	return order
}

// poissonSchedule returns n arrival offsets of a Poisson process of the
// given rate.
func poissonSchedule(rate float64, n int, rng *rand.Rand) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
