// Command benchreport renders a benchstat-style regression table comparing
// a `go test -bench` run against the checked-in baseline shapes in
// BENCH_engine.json, and optionally enforces a small set of SLO
// constraints. CI runs the table on every PR so perf drift is visible, and
// gates merges on the -slo constraints only — a handful of
// deliberately-loose bounds on the benchmarks that matter, instead of a
// noisy threshold across all of them.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/... | benchreport -baseline BENCH_engine.json
//	... | benchreport -slo 'SearchF1<=+10%,SnapshotLoadMapped<=0.25*ParseBuild'
//
// The baseline JSON is the repo's bench-trajectory format: a "results"
// object of sections, each mapping benchmark names to either a plain
// {"ns_op": ...} record or a {"before": ..., "after": ...} pair (the
// "after" shape is the baseline).
//
// SLO constraints come in two forms, comma-separated:
//
//	Name<=+P%      current ns/op at most P percent above Name's baseline
//	Name<=F*Other  current ns/op at most F times Other's CURRENT ns/op
//
// The ratio form compares two benchmarks from the same run, so it is
// machine-speed independent — the right shape for structural guarantees
// like "the mapped snapshot open costs at most a quarter of a cold parse".
// A benchmark missing from the run (or, for the %-form, the baseline) fails
// its constraint: an SLO that silently stopped being measured is not met.
// Without -slo the tool always exits 0 (report, not gate); with -slo it
// exits 1 when any constraint fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine is one parsed benchmark result.
type benchLine struct {
	Name string // e.g. "ServerLoad/poisson" (Benchmark prefix and -P suffix stripped)
	NsOp float64
}

// benchRe matches "BenchmarkName[-P] <iters> <ns> ns/op ...".
var benchRe = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.e+]+) ns/op`)

// parseBench extracts benchmark results from `go test -bench` output.
func parseBench(r io.Reader) ([]benchLine, error) {
	var out []benchLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out = append(out, benchLine{Name: canonicalName(m[1]), NsOp: ns})
	}
	return out, sc.Err()
}

// canonicalName strips the Benchmark prefix and the trailing -P GOMAXPROCS
// suffix (absent when GOMAXPROCS=1) from a bench name, leaving sub-bench
// paths intact.
func canonicalName(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	// The -P suffix attaches to the last path element only.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// loadBaseline flattens the baseline JSON's results sections into
// name → ns/op. Records with before/after pairs contribute their "after".
func loadBaseline(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Results map[string]map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	type record struct {
		NsOp  *float64 `json:"ns_op"`
		After *struct {
			NsOp float64 `json:"ns_op"`
		} `json:"after"`
	}
	out := make(map[string]float64)
	for _, section := range doc.Results {
		for name, rawRec := range section {
			var rec record
			if err := json.Unmarshal(rawRec, &rec); err != nil {
				continue // prose fields like notes live beside records
			}
			switch {
			case rec.After != nil:
				out[name] = rec.After.NsOp
			case rec.NsOp != nil:
				out[name] = *rec.NsOp
			}
		}
	}
	return out, nil
}

// report renders the markdown comparison table and returns the regression
// count (current > threshold × baseline).
func report(w io.Writer, lines []benchLine, baseline map[string]float64, threshold float64) int {
	sort.Slice(lines, func(i, j int) bool { return lines[i].Name < lines[j].Name })
	fmt.Fprintln(w, "### Bench regression report")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Threshold ×%.2f against the checked-in baseline; 1-iteration numbers are noisy — treat ⚠ rows as pointers, not verdicts.\n", threshold)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| benchmark | baseline ns/op | current ns/op | Δ | |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|")
	regressions := 0
	for _, l := range lines {
		base, ok := baseline[l.Name]
		if !ok || base <= 0 {
			fmt.Fprintf(w, "| %s | — | %.0f | — | new |\n", l.Name, l.NsOp)
			continue
		}
		delta := (l.NsOp - base) / base * 100
		flag := ""
		if l.NsOp > base*threshold {
			flag = "⚠ regression"
			regressions++
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %+.1f%% | %s |\n", l.Name, base, l.NsOp, delta, flag)
	}
	fmt.Fprintln(w)
	if regressions > 0 {
		fmt.Fprintf(w, "**%d benchmark(s) above threshold.**\n", regressions)
	} else {
		fmt.Fprintln(w, "No benchmarks above threshold.")
	}
	return regressions
}

// sloConstraint is one parsed -slo entry.
type sloConstraint struct {
	name string // benchmark under constraint
	// Exactly one of the two bounds is active:
	pctOver float64 // "<=+P%": max percent over baseline (relative form)
	other   string  // "<=F*Other": compare against this benchmark's current ns/op
	factor  float64 // the F in "<=F*Other"
	isRatio bool
}

var (
	sloPctRe   = regexp.MustCompile(`^(\S+?)<=\+([0-9.]+)%$`)
	sloRatioRe = regexp.MustCompile(`^(\S+?)<=([0-9.]+)\*(\S+)$`)
)

// parseSLO parses a comma-separated constraint list.
func parseSLO(spec string) ([]sloConstraint, error) {
	var out []sloConstraint
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if m := sloPctRe.FindStringSubmatch(part); m != nil {
			pct, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("slo %q: %w", part, err)
			}
			out = append(out, sloConstraint{name: m[1], pctOver: pct})
			continue
		}
		if m := sloRatioRe.FindStringSubmatch(part); m != nil {
			f, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("slo %q: %w", part, err)
			}
			out = append(out, sloConstraint{name: m[1], other: m[3], factor: f, isRatio: true})
			continue
		}
		return nil, fmt.Errorf("slo %q: want Name<=+P%% or Name<=F*Other", part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo %q: no constraints", spec)
	}
	return out, nil
}

// checkSLO evaluates constraints against the run and baseline, printing one
// verdict line each, and returns the number of failures.
func checkSLO(w io.Writer, cons []sloConstraint, lines []benchLine, baseline map[string]float64) int {
	current := make(map[string]float64, len(lines))
	for _, l := range lines {
		current[l.Name] = l.NsOp
	}
	failures := 0
	for _, c := range cons {
		cur, ok := current[c.name]
		if !ok {
			fmt.Fprintf(w, "SLO FAIL: %s not present in this bench run\n", c.name)
			failures++
			continue
		}
		if c.isRatio {
			ref, ok := current[c.other]
			if !ok {
				fmt.Fprintf(w, "SLO FAIL: %s not present in this bench run (needed by %s<=%g*%s)\n",
					c.other, c.name, c.factor, c.other)
				failures++
				continue
			}
			limit := c.factor * ref
			verdict := "PASS"
			if cur > limit {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(w, "SLO %s: %s<=%g*%s — %.0f ns/op vs limit %.0f (%s = %.0f)\n",
				verdict, c.name, c.factor, c.other, cur, limit, c.other, ref)
			continue
		}
		base, ok := baseline[c.name]
		if !ok || base <= 0 {
			fmt.Fprintf(w, "SLO FAIL: %s has no baseline entry\n", c.name)
			failures++
			continue
		}
		limit := base * (1 + c.pctOver/100)
		verdict := "PASS"
		if cur > limit {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "SLO %s: %s<=+%g%% — %.0f ns/op vs limit %.0f (baseline %.0f, %+.1f%%)\n",
			verdict, c.name, c.pctOver, cur, limit, base, (cur-base)/base*100)
	}
	return failures
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_engine.json", "baseline JSON (repo bench-trajectory format)")
		inputPath    = flag.String("input", "-", "bench output file ('-' = stdin)")
		threshold    = flag.Float64("threshold", 1.30, "flag current > threshold × baseline")
		sloSpec      = flag.String("slo", "", "blocking constraints, e.g. 'SearchF1<=+10%,SnapshotLoadMapped<=0.25*ParseBuild' (exit 1 on violation)")
	)
	flag.Parse()

	var slos []sloConstraint
	if *sloSpec != "" {
		var err error
		if slos, err = parseSLO(*sloSpec); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(2)
		}
	}

	baseline, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(2)
	}
	in := os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	lines, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(2)
	}
	if len(lines) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmark lines in input")
		os.Exit(2)
	}
	// The table never fails the run (1x numbers are noisy across the board);
	// only the explicit SLO constraints gate.
	report(os.Stdout, lines, baseline, *threshold)
	if len(slos) > 0 {
		fmt.Println()
		if failures := checkSLO(os.Stdout, slos, lines, baseline); failures > 0 {
			fmt.Printf("\n**%d SLO constraint(s) violated.**\n", failures)
			os.Exit(1)
		}
	}
}
