//go:build linux

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of `bench compare`, per (metric, workload).
const (
	verdictOK         = "ok"         // B's median is within the bound of A's
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // a side's run-to-run spread is wider than the bound: nothing can be said
	verdictNone       = "-"          // a per-layer metric: no bound, shown for attribution
)

func loadSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs (expected the file `bench all` writes)", path)
	}
	return &set, nil
}

// values collects one metric of one workload across a set's runs.
func (s *runSet) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// verdict judges B against A for one metric. The spread is the distance
// between the quartiles as a share of the median, as the driver computes it.
func verdict(m metricSpec, a, b []float64) string {
	if m.Bound == 0 {
		return verdictNone
	}
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / med
	}
	if spread(aq1, amed, aq3) > m.Bound || spread(bq1, bmed, bq3) > m.Bound {
		return verdictUnresolved
	}
	worse := bmed - amed
	if m.Better == "higher" {
		worse = amed - bmed
	}
	if worse > m.Bound*amed {
		return verdictWorse
	}
	return verdictOK
}

// compareSets writes one row per (metric, workload) and reports whether any
// end-to-end metric got worse.
func compareSets(w io.Writer, a, b *runSet) (anyWorse bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tbound\tverdict")
	for _, trace := range []bool{false, true} {
		specs := endToEnd
		if trace {
			specs = perLayer
		}
		for _, wl := range workloads {
			for _, m := range specs {
				av, bv := a.values(wl.Name, m.Name, trace), b.values(wl.Name, m.Name, trace)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				aq1, amed, aq3 := quartiles(av)
				bq1, bmed, bq3 := quartiles(bv)
				v := verdict(m, av, bv)
				anyWorse = anyWorse || v == verdictWorse
				bound := "-"
				if m.Bound > 0 {
					bound = fmt.Sprintf("%g%%", m.Bound*100)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%s\t%s\n",
					wl.Name, m.Name, m.Unit, aq1, amed, aq3, bq1, bmed, bq3, bound, v)
			}
		}
	}
	tw.Flush()
	for name, s := range map[string]*runSet{"A": a, "B": b} {
		invalid, failed := 0, 0
		for _, r := range s.Runs {
			if !r.Valid {
				invalid++
			}
			if !r.Correct {
				failed++
			}
		}
		if invalid+failed > 0 {
			fmt.Fprintf(w, "%s: %d of %d runs flagged invalid (generator late or busy), %d with failed operations\n",
				name, invalid, len(s.Runs), failed)
		}
	}
	return anyWorse
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.json B.json")
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	if compareSets(os.Stdout, a, b) {
		return errors.New("at least one end-to-end metric is worse in B than in A by more than its bound")
	}
	return nil
}
