//go:build linux

package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"gqbe"
)

// Validity limits: past them the numbers describe the scheduler or the
// generator, not the program under test.
const (
	maxLateP99  = time.Millisecond
	maxGenShare = 0.5
	// checkedShare is the seeded share of served responses compared against
	// the oracle; every response gets the structural checks.
	checkedShare = 0.05
	// bootReps is how many boots setup_s is the median of.
	bootReps = 5
)

// satCap bounds the requests planned for a saturation phase, per second of
// it: far above what two loopback clients reach.
func satCap(w workload) float64 {
	if w.Hot {
		return 40000
	}
	return 2000
}

// warmHot sends every key of the hot stream once before timing, so the phases
// only hit — one at a time and in the same order on every seed, so the
// daemon's peak memory does not depend on which heavy searches happened to
// overlap or to follow each other.
func warmHot(g *generator, st *stream) error {
	keys := append([]op(nil), st.keys...)
	sort.Slice(keys, func(i, j int) bool { return opKey(keys[i]) < opKey(keys[j]) })
	warm := make([]planned, len(keys))
	for i, k := range keys {
		warm[i] = g.frame(k, -1)
	}
	recs, _ := g.closed(warm, time.Hour, 0, 1)
	for _, rec := range recs {
		if rec.status != http.StatusOK {
			return fmt.Errorf("bench: warm-up request %s: status %d", opKey(warm[rec.idx].op), rec.status)
		}
	}
	return nil
}

// runServed measures a served workload against real child processes: a
// warm-up, an open (Poisson) phase at the workload's fixed rate, and a
// closed-loop saturation phase, all from this one generator process.
func runServed(cfg runConfig, w workload, pools *poolFile) (*result, error) {
	r := newResult(cfg, w)
	binDir, err := buildChildren(cfg.Root)
	if err != nil {
		return nil, err
	}
	ds, err := newDataset(cfg.Root)
	if err != nil {
		return nil, err
	}
	defer ds.close()
	if err := ds.writeSnapshot(); err != nil {
		return nil, err
	}
	var shardSnaps []string
	if w.Fleet {
		if shardSnaps, _, err = ds.cutShards(binDir, fleetShards); err != nil {
			return nil, err
		}
	}

	// setup_s: boot the deployment several times, keep the last one running.
	probe := &http.Client{Timeout: time.Second}
	reps := bootReps
	if cfg.Quick {
		reps = 1
	}
	var dep *deployment
	boots := make([]float64, reps)
	for i := range boots {
		if dep != nil {
			dep.stop()
		}
		var took time.Duration
		if dep, took, err = boot(binDir, ds, shardSnaps, w, probe); err != nil {
			return nil, err
		}
		boots[i] = took.Seconds()
	}
	defer dep.stop()
	r.Metrics["setup_s"] = median(boots)

	oeng, err := gqbe.OpenSnapshotMapped(ds.snap)
	if err != nil {
		return nil, err
	}
	defer oeng.Close()
	or := newOracle(oeng)

	st := newStream(w, pools, cfg.Seed, cfg.Quick)
	g := newGenerator(dep.front.addr, max(w.OpenConns, runtime.NumCPU()))
	defer g.close()

	// Plan the phases. The open phase of a cold stream is a whole number of
	// cycles, so every run sends each tuple equally often.
	openDur := cfg.Seconds * openShare
	satDur := time.Duration((cfg.Seconds - openDur) * float64(time.Second))
	nOpen := int(w.Rate * openDur)
	if c := st.cycleLen(); c > 0 {
		nOpen = int(math.Round(float64(nOpen)/float64(c))) * c
		if nOpen == 0 {
			nOpen = c
		}
	}
	nSat := int(satCap(w) * satDur.Seconds())
	if c := st.cycleLen(); c > 0 {
		nSat = (nSat/c + 1) * c
	}
	from := 0
	if w.Hot {
		if err := warmHot(g, st); err != nil {
			return nil, err
		}
	} else {
		// One cycle unmeasured: connections, pools and the heap settle, and
		// the keys it uses are never sent again.
		warm := g.plan(st, 0, st.cycleLen())
		g.closed(warm, time.Hour, 0, runtime.NumCPU())
		from = st.cycleLen()
	}
	openPlan := g.plan(st, from, nOpen)
	satPlan := g.plan(st, from+nOpen, nSat)
	due := poissonSchedule(w.Rate, nOpen, rand.New(rand.NewSource(cfg.Seed^0x5eed)))

	// The generator's own collector stays off while the clock runs: a mark
	// phase over the plans and records stalls the sender, and the stall
	// would be charged to the server.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0, err := dep.cpu()
	if err != nil {
		return nil, err
	}
	openRecs, openStats := g.open(openPlan, due)
	cpu1, err := dep.cpu()
	if err != nil {
		return nil, err
	}
	satRecs, satStats := g.closed(satPlan, satDur, st.cycleLen(), runtime.NumCPU())
	rss, err := dep.peakRSS()
	if err != nil {
		return nil, err
	}
	debug.SetGCPercent(100)

	// Correctness, after the clock has stopped: structural checks on every
	// response, the oracle comparison on a seeded sample.
	coin := rand.New(rand.NewSource(cfg.Seed ^ 0xc0ffee))
	sample := func(plan []planned, recs []record) ([]bool, []op) {
		flags := make([]bool, len(recs))
		var ops []op
		for i, rec := range recs {
			if flags[i] = coin.Float64() < checkedShare; flags[i] {
				ops = append(ops, plan[rec.idx].op)
			}
		}
		return flags, ops
	}
	openCmp, openOps := sample(openPlan, openRecs)
	satCmp, satOps := sample(satPlan, satRecs)
	if err := or.warm(append(openOps, satOps...)); err != nil {
		return nil, err
	}
	verdicts := map[string]error{}
	judge := func(p planned, rec record, compare bool) error {
		if rec.status != http.StatusOK {
			return fmt.Errorf("status %d", rec.status)
		}
		key := fmt.Sprintf("%s/%x/%v", opKey(p.op), rec.hash, compare)
		v, ok := verdicts[key]
		if !ok {
			var want []gqbe.Answer
			if compare {
				if want, v = or.answers(p.op); v != nil { // warmed above, so a memo read
					return v
				}
			}
			v = checkBody(p.op, g.bodies[rec.hash], want, compare)
			verdicts[key] = v
		}
		return v
	}
	var lats []float64
	met := 0
	for i, rec := range openRecs {
		r.Attempted++
		if err := judge(openPlan[rec.idx], rec, openCmp[i]); err != nil {
			r.fail("open #%d %s: %v", rec.idx, opKey(openPlan[rec.idx].op), err)
			continue
		}
		lats = append(lats, ms(rec.lat))
		if rec.lat <= w.SLO {
			met++
		}
	}
	satOK := 0
	for i, rec := range satRecs {
		r.Attempted++
		if err := judge(satPlan[rec.idx], rec, satCmp[i]); err != nil {
			r.fail("sat #%d %s: %v", rec.idx, opKey(satPlan[rec.idx].op), err)
			continue
		}
		satOK++
	}

	sort.Float64s(lats)
	tail := tailPercentile(w.TailPct, len(lats))
	r.Metrics["query_p50_ms"] = percentile(lats, 50)
	r.Metrics["query_tail_ms"] = percentile(lats, tail)
	r.Metrics["throughput_qps"] = float64(satOK) / satStats.elapsed.Seconds()
	r.Metrics["slo_met_share"] = float64(met) / float64(len(openRecs))
	r.Metrics["cpu_ms_per_query"] = ms(cpu1-cpu0) / float64(len(openRecs))
	r.Metrics["rss_peak_mb"] = rss

	late := make([]float64, len(openRecs))
	for i, rec := range openRecs {
		late[i] = ms(rec.late)
	}
	sort.Float64s(late)
	lateP99 := percentile(late, 99)
	genShare := 0.0
	if total := openStats.cpu + (cpu1 - cpu0); total > 0 {
		genShare = float64(openStats.cpu) / float64(total)
	}
	if lateP99 > ms(maxLateP99) {
		r.invalidate("gen.late_p99_ms %.3f > %.0f: the numbers measure the scheduler", lateP99, ms(maxLateP99))
	}
	if genShare > maxGenShare {
		r.invalidate("gen.cpu_share %.2f > %.1f: the numbers measure the generator", genShare, maxGenShare)
	}
	r.Notes["tail_percentile"] = tail
	for _, p := range []float64{75, 90, 95, 99, 100} {
		r.Notes[fmt.Sprintf("open_p%g_ms", p)] = percentile(lats, p)
	}
	r.Notes["samples"] = float64(len(lats))
	r.Notes["slo_ms"] = ms(w.SLO)
	r.Notes["open_rate_rps"] = w.Rate
	r.Notes["open_seconds"] = openStats.elapsed.Seconds()
	r.Notes["sat_requests"] = float64(len(satRecs))
	r.Notes["sat_seconds"] = satStats.elapsed.Seconds()
	r.Notes["gen.sent"] = float64(len(openRecs) + len(satRecs))
	r.Notes["gen.late_p99_ms"] = lateP99
	r.Notes["gen.late_p50_ms"] = percentile(late, 50)
	r.Notes["gen.late_p90_ms"] = percentile(late, 90)
	r.Notes["gen.inflight_max"] = float64(openStats.inflightMax)
	r.Notes["gen.cpu_share"] = genShare
	r.finish()
	return r, nil
}
