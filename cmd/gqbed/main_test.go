package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gqbe/internal/fault"
	"gqbe/internal/testkg"
)

// writeGraphTSV materializes the Fig. 1 test graph as a TSV triple file.
func writeGraphTSV(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	for _, tr := range testkg.Fig1Triples() {
		b.WriteString(tr[0] + "\t" + tr[1] + "\t" + tr[2] + "\n")
	}
	path := filepath.Join(dir, "kg.tsv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadEngineSnapshotRoundTrip: the boot path writes a snapshot on the
// first (graph-built) load and restores from it alone on the next.
func TestLoadEngineSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	graph := writeGraphTSV(t, dir)
	snap := filepath.Join(dir, "kg.snap")

	built, err := loadEngine(graph, snap, true, false)
	if err != nil {
		t.Fatalf("build+snapshot load: %v", err)
	}
	restored, err := loadEngine("", snap, false, false)
	if err != nil {
		t.Fatalf("snapshot-only load: %v", err)
	}
	if !restored.BuildInfo().FromSnapshot {
		t.Error("snapshot-only load did not report FromSnapshot")
	}
	if restored.NumEntities() != built.NumEntities() || restored.NumFacts() != built.NumFacts() {
		t.Errorf("restored engine shape %d/%d != built %d/%d",
			restored.NumEntities(), restored.NumFacts(), built.NumEntities(), built.NumFacts())
	}
}

// TestLoadEngineCorruptSnapshotFallsBack: a snapshot with a flipped byte is
// rejected by its checksum and the daemon rebuilds from the graph instead of
// refusing to start — unless there is no graph to fall back to, which must
// be a hard error rather than a silent empty engine.
func TestLoadEngineCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	graph := writeGraphTSV(t, dir)
	snap := filepath.Join(dir, "kg.snap")
	built, err := loadEngine(graph, snap, true, false)
	if err != nil {
		t.Fatalf("build+snapshot load: %v", err)
	}

	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	eng, err := loadEngine(graph, snap, false, false)
	if err != nil {
		t.Fatalf("corrupt snapshot with graph fallback: %v", err)
	}
	if eng.BuildInfo().FromSnapshot {
		t.Error("corrupt snapshot was reported as loaded")
	}
	if eng.NumEntities() != built.NumEntities() || eng.NumFacts() != built.NumFacts() {
		t.Errorf("rebuilt engine shape %d/%d != original %d/%d",
			eng.NumEntities(), eng.NumFacts(), built.NumEntities(), built.NumFacts())
	}

	if _, err := loadEngine("", snap, false, false); err == nil {
		t.Error("corrupt snapshot with no graph fallback loaded successfully")
	}
}

// TestLoadEngineInjectedSnapshotFaultFallsBack: the same fallback driven by
// the fault registry instead of byte surgery — an injected read error during
// the snapshot load (any transient I/O failure) must also end in a healthy
// graph-built engine.
func TestLoadEngineInjectedSnapshotFaultFallsBack(t *testing.T) {
	dir := t.TempDir()
	graph := writeGraphTSV(t, dir)
	snap := filepath.Join(dir, "kg.snap")
	built, err := loadEngine(graph, snap, true, false)
	if err != nil {
		t.Fatalf("build+snapshot load: %v", err)
	}

	// After=3 lets the snapshot framing parse before the fault fires, so the
	// failure lands mid-load; Limit=1 keeps the graph rebuild clean.
	fault.Enable(fault.Config{fault.SnapioReadErr: {Every: 1, After: 3, Limit: 1}})
	defer fault.Disable()
	eng, err := loadEngine(graph, snap, false, false)
	if err != nil {
		t.Fatalf("injected snapshot fault with graph fallback: %v", err)
	}
	if eng.BuildInfo().FromSnapshot {
		t.Error("fault-failed snapshot was reported as loaded")
	}
	if eng.NumEntities() != built.NumEntities() || eng.NumFacts() != built.NumFacts() {
		t.Errorf("rebuilt engine shape %d/%d != original %d/%d",
			eng.NumEntities(), eng.NumFacts(), built.NumEntities(), built.NumFacts())
	}
}
