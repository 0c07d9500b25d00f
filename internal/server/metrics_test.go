package server

import (
	"testing"
	"time"
)

// TestSnapshotLatencyQuantiles pins the histogram-derived /statz percentiles:
// interpolated within the bucket holding the target rank (Prometheus
// histogram_quantile semantics), with Samples the lifetime observation count.
func TestSnapshotLatencyQuantiles(t *testing.T) {
	m := newServerMetrics()
	cache := newResultCache(8, 1)
	adm := newAdmission(1, time.Second)

	snap := m.snapshot(cache, adm, statzEngine{}, statzBuild{}, 0, 1)
	if snap.Latency.Samples != 0 || snap.Latency.P50 != 0 || snap.Latency.P99 != 0 {
		t.Fatalf("empty histogram: %+v", snap.Latency)
	}

	// One fast and one slow search: upper quantiles must land in the slow
	// sample's bucket, not underreport on tiny counts. 80ms falls in the
	// (50ms, 100ms] bucket, so p99 is interpolated within (50, 100].
	m.searchLat.Observe(time.Millisecond)
	m.searchLat.Observe(80 * time.Millisecond)
	snap = m.snapshot(cache, adm, statzEngine{}, statzBuild{}, 0, 1)
	if snap.Latency.Samples != 2 {
		t.Fatalf("samples = %d, want 2", snap.Latency.Samples)
	}
	if snap.Latency.P99 <= 50 || snap.Latency.P99 > 100 {
		t.Errorf("p99 = %.2fms, want within the slow sample's (50,100]ms bucket", snap.Latency.P99)
	}
	if snap.Latency.P50 > snap.Latency.P90 || snap.Latency.P90 > snap.Latency.P99 {
		t.Errorf("percentiles not monotone: p50=%.2f p90=%.2f p99=%.2f",
			snap.Latency.P50, snap.Latency.P90, snap.Latency.P99)
	}

	// The histogram is lifetime, not a sliding window: more observations only
	// add samples.
	for i := 0; i < 10; i++ {
		m.searchLat.Observe(time.Duration(i+1) * time.Second)
	}
	snap = m.snapshot(cache, adm, statzEngine{}, statzBuild{}, 0, 1)
	if snap.Latency.Samples != 12 {
		t.Fatalf("samples = %d, want 12 (lifetime count)", snap.Latency.Samples)
	}
}

// TestSnapshotSlowQueries: the slow-query counter surfaces on /statz.
func TestSnapshotSlowQueries(t *testing.T) {
	m := newServerMetrics()
	m.slowQueries.Add(3)
	snap := m.snapshot(newResultCache(8, 1), newAdmission(1, time.Second), statzEngine{}, statzBuild{}, 0, 1)
	if snap.SlowQueries != 3 {
		t.Errorf("slow_queries = %d, want 3", snap.SlowQueries)
	}
}
