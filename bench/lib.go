//go:build linux

package main

import (
	"context"
	"math/rand"
	"os"
	"sort"
	"time"

	"gqbe"
)

// setupReps is how many times a run repeats the set-up it times; setup_s is
// the median, because one 40 ms load or one 60 ms boot is mostly noise.
const setupReps = 9

// libQuery issues one op the way an embedding program would.
func libQuery(eng *gqbe.Engine, o op) (*gqbe.Result, error) {
	opts := &gqbe.Options{K: o.K}
	if len(o.Entry.Tuples) == 1 {
		return eng.QueryCtx(context.Background(), o.Entry.Tuples[0], opts)
	}
	return eng.QueryMultiCtx(context.Background(), o.Entry.Tuples, opts)
}

// runLib measures a lib-* workload: one caller in a closed loop over
// gqbe.Engine in this process, whole passes until --seconds is used up.
func runLib(cfg runConfig, w workload, pools *poolFile) (*result, error) {
	r := newResult(cfg, w)
	d, err := newDataset(cfg.Root)
	if err != nil {
		return nil, err
	}
	defer d.close()

	// setup_s: what an embedder waits before its first query.
	reps := setupReps
	if cfg.Quick {
		reps = 1
	}
	var eng *gqbe.Engine
	loads := make([]float64, reps)
	for i := range loads {
		start := time.Now()
		if eng, err = gqbe.LoadFile(d.tsv); err != nil {
			return nil, err
		}
		loads[i] = time.Since(start).Seconds()
	}
	r.Metrics["setup_s"] = median(loads)

	// The oracle is a second engine restored from a snapshot, so the check
	// also holds the triples-built and snapshot-restored engines together.
	if err := d.writeSnapshot(); err != nil {
		return nil, err
	}
	oeng, err := gqbe.OpenSnapshotMapped(d.snap)
	if err != nil {
		return nil, err
	}
	defer oeng.Close()
	or := newOracle(oeng)
	pass := libPass(w, pools, cfg.Quick)
	if err := or.warm(pass); err != nil {
		return nil, err
	}

	// Warm-up, a pass or a second of it: pooled distance tables, grown
	// arenas and a settled heap are what a long-lived embedder runs with.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for warmStart, warm := time.Now(), shuffled(pass, rng); len(warm) > 0 && time.Since(warmStart) < time.Second; warm = warm[1:] {
		if _, err := libQuery(eng, warm[0]); err != nil {
			return nil, err
		}
	}

	type sample struct {
		op  op
		lat time.Duration
		res *gqbe.Result
		err error
	}
	var samples []sample
	var passQPS []float64
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	cpu0, start := selfCPU(), time.Now()
	for {
		order := shuffled(pass, rng)
		passStart := time.Now()
		for _, o := range order {
			t0 := time.Now()
			res, err := libQuery(eng, o)
			samples = append(samples, sample{o, time.Since(t0), res, err})
		}
		passTook := time.Since(passStart)
		passQPS = append(passQPS, float64(len(order))/passTook.Seconds())
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(passQPS)) > budget+budget/20 {
			break
		}
	}
	cpu := selfCPU() - cpu0

	lats := make([]float64, 0, len(samples))
	met := 0
	for _, s := range samples {
		r.Attempted++
		if s.err != nil {
			r.fail("%s: %v", opKey(s.op), s.err)
			continue
		}
		if err := checkLib(or, s.op, s.res); err != nil {
			r.fail("%s: %v", opKey(s.op), err)
			continue
		}
		lats = append(lats, ms(s.lat))
		if s.lat <= w.SLO {
			met++
		}
	}
	sort.Float64s(lats)
	tail := tailPercentile(w.TailPct, len(lats))
	r.Metrics["query_p50_ms"] = percentile(lats, 50)
	r.Metrics["query_tail_ms"] = percentile(lats, tail)
	r.Metrics["throughput_qps"] = median(passQPS)
	r.Metrics["slo_met_share"] = float64(met) / float64(len(samples))
	r.Metrics["cpu_ms_per_query"] = ms(cpu) / float64(len(samples))
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.Metrics["rss_peak_mb"] = rss
	r.Notes["tail_percentile"] = tail
	r.Notes["samples"] = float64(len(lats))
	r.Notes["passes"] = float64(len(passQPS))
	r.Notes["pass_ops"] = float64(len(pass))
	r.Notes["slo_ms"] = ms(w.SLO)
	r.finish()
	return r, nil
}
