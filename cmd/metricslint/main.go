// Command metricslint is the CI observability gate: it validates the two
// machine-readable surfaces the serving layer exposes, without any scrape or
// JSON-schema dependency.
//
//   - -metrics FILE: the body of GET /metrics must be well-formed Prometheus
//     text exposition (format 0.0.4): every sample line parses, every sample
//     belongs to a family declared with # TYPE (of a known type), and every
//     histogram keeps its invariants — strictly increasing bucket bounds,
//     monotone cumulative counts, a final le="+Inf" bucket, and _count/_sum
//     series with _count equal to the +Inf bucket exactly. The degraded-
//     service families the server promises (gqbe_faults_injected_total,
//     gqbe_recovered_panics_total, gqbe_stale_served_total,
//     gqbe_reloads_total, gqbe_brownouts_total, gqbe_engine_generation)
//     must be present — a refactor that drops one would otherwise blind the
//     failure-mode dashboards silently;
//   - -explain FILE: the body of POST /v1/query:explain must carry the
//     documented schema — request_id, answers, stats, lattice, node_evals,
//     trace, serving — with the cross-field invariants the server promises:
//     lattice.evaluated == stats.nodes_evaluated, len(node_evals) equal to
//     it (or below it when "truncated": true marks a capped response), and
//     a trace rooted at the "query" span.
//
// Usage:
//
//	metricslint -metrics metrics.txt -explain explain.json
//
// Exit status is non-zero if any finding is reported; each finding is one
// line on stderr.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	metricsPath := flag.String("metrics", "", "Prometheus text exposition file to validate")
	explainPath := flag.String("explain", "", "/v1/query:explain JSON response file to validate")
	routerScrape := flag.Bool("router", false, "the -metrics file is a gqberouter scrape: require the gqbe_router_* fleet families instead of the daemon's")
	flag.Parse()

	if *metricsPath == "" && *explainPath == "" {
		fmt.Fprintln(os.Stderr, "metricslint: nothing to lint; pass -metrics and/or -explain")
		os.Exit(2)
	}
	var findings []string
	if *metricsPath != "" {
		f, err := os.Open(*metricsPath)
		if err != nil {
			fatalf("metricslint: %v", err)
		}
		required := gqbeRequiredFamilies
		if *routerScrape {
			required = routerRequiredFamilies
		}
		findings = append(findings, lintMetrics(f, required)...)
		f.Close()
	}
	if *explainPath != "" {
		data, err := os.ReadFile(*explainPath)
		if err != nil {
			fatalf("metricslint: %v", err)
		}
		findings = append(findings, lintExplain(data)...)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "metricslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// knownTypes are the metric types the 0.0.4 exposition format defines.
var knownTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// gqbeRequiredFamilies are the degraded-service metric families gqbed's
// /metrics contractually exposes; the CI gate fails if any disappears.
var gqbeRequiredFamilies = []string{
	"gqbe_faults_injected_total",
	"gqbe_recovered_panics_total",
	"gqbe_stale_served_total",
	"gqbe_reloads_total",
	"gqbe_brownouts_total",
	"gqbe_engine_generation",
}

// routerRequiredFamilies are the fleet-health families gqberouter's /metrics
// contractually exposes (-router): the degraded-mode dashboards — partial
// merges, shard errors, stale serving, trajectory-divergence alarms — go
// blind if any of these disappears.
var routerRequiredFamilies = []string{
	"gqbe_router_requests_total",
	"gqbe_router_outcomes_total",
	"gqbe_router_fanout_total",
	"gqbe_router_shard_errors_total",
	"gqbe_router_partial_total",
	"gqbe_router_stats_mismatch_total",
	"gqbe_router_stale_served_total",
	"gqbe_router_shard_latency_seconds",
	"gqbe_router_shards",
}

// sample is one parsed exposition sample.
type sample struct {
	labels string
	value  float64
}

// lintMetrics validates a Prometheus text exposition read from r and
// returns one finding per violation. Each family in required must be both
// declared and sampled; pass nil to lint format only.
func lintMetrics(r io.Reader, required []string) []string {
	var findings []string
	types := make(map[string]string)
	samples := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				findings = append(findings, fmt.Sprintf("line %d: malformed TYPE line: %q", lineNo, line))
				continue
			}
			if !knownTypes[f[3]] {
				findings = append(findings, fmt.Sprintf("line %d: unknown metric type %q", lineNo, f[3]))
			}
			types[f[2]] = f[3]
		case strings.HasPrefix(line, "# HELP "):
			if len(strings.Fields(line)) < 3 {
				findings = append(findings, fmt.Sprintf("line %d: malformed HELP line: %q", lineNo, line))
			}
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and ignored.
		default:
			name, s, err := parseSample(line)
			if err != nil {
				findings = append(findings, fmt.Sprintf("line %d: %v", lineNo, err))
				continue
			}
			samples[name] = append(samples[name], s)
		}
	}
	if err := sc.Err(); err != nil {
		return append(findings, fmt.Sprintf("reading exposition: %v", err))
	}
	if len(samples) == 0 {
		findings = append(findings, "exposition has no samples")
	}

	// Every sample must belong to a declared family.
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := types[familyOf(name, types)]; !ok {
			findings = append(findings, fmt.Sprintf("sample %s has no # TYPE declaration", name))
		}
	}

	// Contractual families: declared with a TYPE and carrying at least one
	// sample (labeled variants like gqbe_reloads_total{outcome="ok"} count).
	for _, fam := range required {
		if _, ok := types[fam]; !ok {
			findings = append(findings, fmt.Sprintf("required family %s has no # TYPE declaration", fam))
			continue
		}
		n := len(samples[fam])
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			n += len(samples[fam+suf])
		}
		if n == 0 {
			findings = append(findings, fmt.Sprintf("required family %s has no samples", fam))
		}
	}

	// Histogram invariants.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		findings = append(findings, lintHistogram(fam, samples)...)
	}
	return findings
}

// parseSample splits one sample line into its metric name (labels stripped)
// and parsed sample.
func parseSample(line string) (string, sample, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", sample{}, fmt.Errorf("malformed sample line: %q", line)
	}
	id, raw := line[:sp], line[sp+1:]
	val, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return "", sample{}, fmt.Errorf("unparseable value in %q: %v", line, err)
	}
	name, labels := id, ""
	if i := strings.IndexByte(id, '{'); i >= 0 {
		if !strings.HasSuffix(id, "}") {
			return "", sample{}, fmt.Errorf("malformed labels in %q", line)
		}
		name, labels = id[:i], id[i+1:len(id)-1]
	}
	if name == "" {
		return "", sample{}, fmt.Errorf("empty metric name in %q", line)
	}
	return name, sample{labels: labels, value: val}, nil
}

// familyOf maps a sample name to its declared family: histogram samples
// expose _bucket/_sum/_count under the family's TYPE declaration.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if fam := strings.TrimSuffix(name, suf); fam != name {
			if _, ok := types[fam]; ok {
				return fam
			}
		}
	}
	return name
}

// lintHistogram checks one histogram family's bucket and series invariants.
func lintHistogram(fam string, samples map[string][]sample) []string {
	var findings []string
	buckets := samples[fam+"_bucket"]
	if len(buckets) == 0 {
		return append(findings, fmt.Sprintf("histogram %s has no _bucket samples", fam))
	}
	prevCount := -1.0
	prevBound := 0.0
	first := true
	for _, bk := range buckets {
		le, ok := strings.CutPrefix(bk.labels, `le="`)
		le, ok2 := strings.CutSuffix(le, `"`)
		if !ok || !ok2 {
			findings = append(findings, fmt.Sprintf("histogram %s bucket without le label: %q", fam, bk.labels))
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			findings = append(findings, fmt.Sprintf("histogram %s: unparseable le=%q", fam, le))
			continue
		}
		if !first && bound <= prevBound {
			findings = append(findings, fmt.Sprintf("histogram %s: bucket bounds not increasing at le=%q", fam, le))
		}
		if bk.value < prevCount {
			findings = append(findings, fmt.Sprintf("histogram %s: cumulative count decreases at le=%q", fam, le))
		}
		prevBound, prevCount, first = bound, bk.value, false
	}
	last := buckets[len(buckets)-1]
	if last.labels != `le="+Inf"` {
		findings = append(findings, fmt.Sprintf("histogram %s: final bucket is %q, want le=\"+Inf\"", fam, last.labels))
	}
	count := samples[fam+"_count"]
	switch {
	case len(count) != 1:
		findings = append(findings, fmt.Sprintf("histogram %s: want one _count sample, got %d", fam, len(count)))
	case count[0].value != last.value:
		findings = append(findings, fmt.Sprintf("histogram %s: _count %v != +Inf bucket %v", fam, count[0].value, last.value))
	}
	if len(samples[fam+"_sum"]) != 1 {
		findings = append(findings, fmt.Sprintf("histogram %s: want one _sum sample, got %d", fam, len(samples[fam+"_sum"])))
	}
	return findings
}

// explainDoc is the subset of the explain schema the linter checks; unknown
// fields are fine (the schema may grow), missing ones are findings.
type explainDoc struct {
	RequestID *string `json:"request_id"`
	Answers   *[]any  `json:"answers"`
	Stats     *struct {
		NodesEvaluated *int `json:"nodes_evaluated"`
	} `json:"stats"`
	Lattice *struct {
		Generated  *int    `json:"generated"`
		Evaluated  *int    `json:"evaluated"`
		StopReason *string `json:"stop_reason"`
	} `json:"lattice"`
	NodeEvals *[]struct {
		Edges []int `json:"edges"`
	} `json:"node_evals"`
	Trace *struct {
		Name       *string `json:"name"`
		DurationUS *int64  `json:"duration_us"`
	} `json:"trace"`
	Serving *struct {
		TimeoutMS *float64 `json:"timeout_ms"`
	} `json:"serving"`
	// Truncated marks a response whose node_evals/trace were cut at the
	// server's size caps; absent means false.
	Truncated bool `json:"truncated"`
}

// lintExplain validates one explain response body.
func lintExplain(data []byte) []string {
	var findings []string
	var doc explainDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return []string{fmt.Sprintf("explain: not valid JSON: %v", err)}
	}
	miss := func(what string) { findings = append(findings, "explain: missing "+what) }
	switch {
	case doc.RequestID == nil:
		miss("request_id")
	case *doc.RequestID == "":
		findings = append(findings, "explain: empty request_id")
	}
	if doc.Answers == nil {
		miss("answers")
	}
	if doc.Stats == nil || doc.Stats.NodesEvaluated == nil {
		miss("stats.nodes_evaluated")
	}
	if doc.Lattice == nil || doc.Lattice.Evaluated == nil || doc.Lattice.StopReason == nil {
		miss("lattice.{evaluated,stop_reason}")
	}
	if doc.NodeEvals == nil {
		miss("node_evals")
	}
	if doc.Trace == nil || doc.Trace.Name == nil {
		miss("trace.name")
	}
	if doc.Serving == nil || doc.Serving.TimeoutMS == nil {
		miss("serving.timeout_ms")
	}
	if len(findings) > 0 {
		return findings
	}
	if *doc.Trace.Name != "query" {
		findings = append(findings, fmt.Sprintf("explain: trace root is %q, want \"query\"", *doc.Trace.Name))
	}
	// A truncated response keeps a prefix of node_evals while the stats
	// still describe the full search; untruncated responses replay it all.
	switch got, want := len(*doc.NodeEvals), *doc.Stats.NodesEvaluated; {
	case doc.Truncated && got > want:
		findings = append(findings, fmt.Sprintf("explain: truncated response has %d node_evals, beyond stats.nodes_evaluated %d", got, want))
	case !doc.Truncated && got != want:
		findings = append(findings, fmt.Sprintf("explain: %d node_evals, stats.nodes_evaluated says %d", got, want))
	}
	if got, want := *doc.Lattice.Evaluated, *doc.Stats.NodesEvaluated; got != want {
		findings = append(findings, fmt.Sprintf("explain: lattice.evaluated %d != stats.nodes_evaluated %d", got, want))
	}
	if doc.Lattice.Generated != nil && *doc.Lattice.Generated < *doc.Lattice.Evaluated {
		findings = append(findings, fmt.Sprintf("explain: lattice.generated %d < evaluated %d", *doc.Lattice.Generated, *doc.Lattice.Evaluated))
	}
	return findings
}
