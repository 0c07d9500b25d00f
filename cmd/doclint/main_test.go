package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLintPackageDocs(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "x.go"), `// Package x is documented.
package x

// Documented is fine.
func Documented() {}

func Undocumented() {}

// T is a type.
type T struct{}

func (T) Method() {}

func (T) unexported() {}

const (
	// A is documented inline, which satisfies the lint; the block itself
	// has no doc comment, so B is a finding.
	A = 1
	B = 2
)

var undocumentedButUnexported = 3
`)
	findings, err := lintPackageDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"Undocumented", "T.Method", "value B"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding for %s in:\n%s", want, joined)
		}
	}
	for _, wantNot := range []string{"Documented()", "value A", "unexported"} {
		if strings.Contains(joined, wantNot) {
			t.Errorf("false positive for %s in:\n%s", wantNot, joined)
		}
	}
	if len(findings) != 3 {
		t.Errorf("got %d findings, want 3:\n%s", len(findings), joined)
	}
}

func TestLintPackageDocsMissingPackageComment(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "x.go"), "package x\n")
	findings, err := lintPackageDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "missing package comment") {
		t.Errorf("findings = %v, want one missing-package-comment finding", findings)
	}
}

func TestLintLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "docs", "REF.md"), "see [up](../README.md) and [anchor](../README.md#part) and [gone](nope.md)\nalso [web](https://example.com/x) and [frag](#local)\nand [titled](missing.md \"A Title\") and a [ref][r] link\n\n[r]: alsomissing.md\n")
	write(t, filepath.Join(dir, "README.md"), "see [docs](docs/REF.md) and [titled-ok](docs/REF.md \"Reference\")")
	findings, err := lintLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"nope.md", "missing.md", "alsomissing.md"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing dead-link finding for %s in:\n%s", want, joined)
		}
	}
	if len(findings) != 3 {
		t.Errorf("findings = %v, want exactly 3 dead links", findings)
	}
}

func TestLintCommentCitations(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), "# r\n")
	write(t, filepath.Join(dir, "docs", "OPS.md"), "# o\n")
	write(t, filepath.Join(dir, "pkg", "x.go"), `// Package x: see README.md, OPS.md, docs/OPS.md and
// https://example.com/FAR.md, but not GONE.md.
package x

/* A block comment citing docs/ALSO-GONE.md. */

const s = "a string naming NOTACOMMENT.md is not prose"
`)
	write(t, filepath.Join(dir, "pkg", "testdata", "y.go"), "// IGNORED.md\npackage y\n")
	findings, err := lintCommentCitations(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"x.go:2:", "GONE.md", "docs/ALSO-GONE.md"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in findings:\n%s", want, joined)
		}
	}
	if len(findings) != 2 {
		t.Errorf("findings = %v, want exactly the 2 missing citations", findings)
	}
}
