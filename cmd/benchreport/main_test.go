package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: gqbe/internal/storage
BenchmarkStoreBuild-8             	     442	   2567583 ns/op	 1564225 B/op	    5278 allocs/op
BenchmarkServerLoad/poisson-8      	     100	   1200000 ns/op
BenchmarkStoreProbe             	    1604	    662160 ns/op	       0 B/op	       0 allocs/op
BenchmarkSnapshotLoad            	     500	   1000000 ns/op	 123 MB/s
PASS
ok  	gqbe/internal/storage	5.094s
`

const sampleBaseline = `{
  "results": {
    "storage": {
      "StoreBuild": {
        "before": { "ns_op": 5668963 },
        "after": { "ns_op": 2567583 }
      },
      "StoreProbe": { "after": { "ns_op": 400000 } }
    },
    "startup": {
      "SnapshotLoad": { "ns_op": 900000 },
      "notes": "prose beside records must not break parsing"
    }
  }
}`

func TestParseBench(t *testing.T) {
	lines, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"StoreBuild":         2567583,
		"ServerLoad/poisson": 1200000,
		"StoreProbe":         662160, // no -P suffix (GOMAXPROCS=1)
		"SnapshotLoad":       1000000,
	}
	if len(lines) != len(want) {
		t.Fatalf("parsed %d lines, want %d: %+v", len(lines), len(want), lines)
	}
	for _, l := range lines {
		if want[l.Name] != l.NsOp {
			t.Errorf("%s = %v, want %v", l.Name, l.NsOp, want[l.Name])
		}
	}
}

func TestCanonicalName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkStoreBuild-8":              "StoreBuild",
		"BenchmarkStoreBuild":                "StoreBuild",
		"BenchmarkB/shards=8-16":             "B/shards=8",
		"BenchmarkSearchF1-1":                "SearchF1",
		"BenchmarkTableII_CaseStudy-8":       "TableII_CaseStudy",
		"BenchmarkServerLoad/poisson-8":      "ServerLoad/poisson",
		"BenchmarkEvaluateMinimalTree-profX": "EvaluateMinimalTree-profX", // non-numeric suffix kept
	} {
		if got := canonicalName(in); got != want {
			t.Errorf("canonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLoadBaselineAndReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(sampleBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if baseline["StoreBuild"] != 2567583 {
		t.Errorf("StoreBuild baseline = %v (want after-shape 2567583)", baseline["StoreBuild"])
	}
	if baseline["SnapshotLoad"] != 900000 {
		t.Errorf("SnapshotLoad baseline = %v", baseline["SnapshotLoad"])
	}
	lines, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	regressions := report(&buf, lines, baseline, 1.30)
	out := buf.String()
	// StoreProbe is 662160 vs 400000 baseline (+65%) → flagged; SnapshotLoad
	// is +11% → not flagged; ServerLoad/poisson has no baseline → "new".
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1\n%s", regressions, out)
	}
	if !strings.Contains(out, "⚠ regression") {
		t.Errorf("report misses the regression flag:\n%s", out)
	}
	if !strings.Contains(out, "| ServerLoad/poisson | — | 1200000 | — | new |") {
		t.Errorf("report misses the new-bench row:\n%s", out)
	}
	if !strings.Contains(out, "+0.0%") {
		t.Errorf("report misses the unchanged StoreBuild row:\n%s", out)
	}
}

func TestParseSLO(t *testing.T) {
	cons, err := parseSLO("SearchF1<=+10%, SnapshotLoadMapped<=0.25*ParseBuild")
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 2 {
		t.Fatalf("parsed %d constraints, want 2", len(cons))
	}
	if c := cons[0]; c.isRatio || c.name != "SearchF1" || c.pctOver != 10 {
		t.Errorf("pct constraint = %+v", c)
	}
	if c := cons[1]; !c.isRatio || c.name != "SnapshotLoadMapped" || c.other != "ParseBuild" || c.factor != 0.25 {
		t.Errorf("ratio constraint = %+v", c)
	}
	for _, bad := range []string{"", "SearchF1<=10%", "SearchF1>=+10%", "A<=B*C", "A<=+x%"} {
		if _, err := parseSLO(bad); err == nil {
			t.Errorf("parseSLO(%q) accepted", bad)
		}
	}
}

func TestCheckSLO(t *testing.T) {
	lines := []benchLine{
		{Name: "SearchF1", NsOp: 1050},
		{Name: "SearchF18", NsOp: 2500},
		{Name: "SnapshotLoadMapped", NsOp: 20},
		{Name: "ParseBuild", NsOp: 100},
	}
	baseline := map[string]float64{"SearchF1": 1000, "SearchF18": 2000}
	check := func(spec string, wantFails int, wantOut ...string) {
		t.Helper()
		cons, err := parseSLO(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if got := checkSLO(&buf, cons, lines, baseline); got != wantFails {
			t.Errorf("%s: failures = %d, want %d\n%s", spec, got, wantFails, buf.String())
		}
		for _, w := range wantOut {
			if !strings.Contains(buf.String(), w) {
				t.Errorf("%s: output missing %q:\n%s", spec, w, buf.String())
			}
		}
	}
	// +5% over baseline passes a 10% bound, +25% fails it.
	check("SearchF1<=+10%", 0, "SLO PASS")
	check("SearchF18<=+10%", 1, "SLO FAIL")
	// 20 vs 0.25×100=25 passes; 0.1×100=10 fails.
	check("SnapshotLoadMapped<=0.25*ParseBuild", 0, "SLO PASS")
	check("SnapshotLoadMapped<=0.1*ParseBuild", 1, "SLO FAIL")
	// Missing benchmarks and baselines fail rather than silently pass.
	check("Absent<=+10%", 1, "not present")
	check("SearchF1<=1.0*Absent", 1, "not present")
	check("ParseBuild<=+10%", 1, "no baseline entry")
	check("SearchF1<=+10%,SearchF18<=+10%,SnapshotLoadMapped<=0.25*ParseBuild", 1)
}

func TestRealBaselineParses(t *testing.T) {
	// The tool must understand the repo's actual BENCH_engine.json.
	baseline, err := loadBaseline("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("no baselines parsed from BENCH_engine.json")
	}
	for _, name := range []string{"StoreBuild", "SearchF1", "SnapshotLoad"} {
		if _, ok := baseline[name]; !ok {
			t.Errorf("BENCH_engine.json missing baseline for %s", name)
		}
	}
}
