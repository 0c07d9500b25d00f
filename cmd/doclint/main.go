// Command doclint is the CI documentation gate. It has three checks:
//
//   - exported-symbol docs: every exported const, var, func, type, and
//     method in the given packages must carry a doc comment, and the
//     package itself must have a package comment — the contract that keeps
//     `go doc gqbe` usable (the same rule as revive's `exported`, without
//     pulling in a linter dependency);
//   - doc links: every relative markdown link in the given files and
//     directories must resolve to an existing file, so docs/ cannot rot
//     silently as the tree moves;
//   - comment citations: every *.md file a Go comment under the -comments
//     root names must exist, relative to that root or its docs/ directory,
//     so code cannot point readers at documents that were never written.
//
// Usage:
//
//	doclint -pkg . -links README.md,docs -comments .
//
// Exit status is non-zero if any finding is reported; each finding is one
// line on stderr.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	pkgs := flag.String("pkg", "", "comma-separated package directories whose exported symbols must be documented")
	links := flag.String("links", "", "comma-separated markdown files or directories whose relative links must resolve")
	comments := flag.String("comments", "", "repository root whose Go comments may cite only *.md files that exist under it or its docs/")
	flag.Parse()

	var findings []string
	for _, dir := range splitList(*pkgs) {
		fs, err := lintPackageDocs(dir)
		if err != nil {
			fatalf("doclint: %v", err)
		}
		findings = append(findings, fs...)
	}
	for _, path := range splitList(*links) {
		fs, err := lintLinks(path)
		if err != nil {
			fatalf("doclint: %v", err)
		}
		findings = append(findings, fs...)
	}
	if *comments != "" {
		fs, err := lintCommentCitations(*comments)
		if err != nil {
			fatalf("doclint: %v", err)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// lintPackageDocs reports every undocumented exported symbol in the package
// at dir (test files excluded).
func lintPackageDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	parsed, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, astPkg := range parsed {
		// doc.New with AllDecls keeps everything; we filter to exported
		// names ourselves so unexported helpers never trip the gate.
		d := doc.New(astPkg, dir, doc.AllDecls)
		at := func(name string) string {
			return fmt.Sprintf("%s: package %s: %s", dir, d.Name, name)
		}
		if strings.TrimSpace(d.Doc) == "" {
			findings = append(findings, at("missing package comment"))
		}
		report := func(kind, name, docText string) {
			if ast.IsExported(name) && strings.TrimSpace(docText) == "" {
				findings = append(findings, at(fmt.Sprintf("exported %s %s is undocumented", kind, name)))
			}
		}
		reportValues(&findings, at, append(d.Consts, d.Vars...))
		for _, f := range d.Funcs {
			report("function", f.Name, f.Doc)
		}
		for _, t := range d.Types {
			report("type", t.Name, t.Doc)
			for _, f := range t.Funcs {
				report("function", f.Name, f.Doc)
			}
			for _, m := range t.Methods {
				if ast.IsExported(t.Name) && ast.IsExported(m.Name) {
					if strings.TrimSpace(m.Doc) == "" {
						findings = append(findings, at(fmt.Sprintf("exported method %s.%s is undocumented", t.Name, m.Name)))
					}
				}
			}
			reportValues(&findings, at, append(t.Consts, t.Vars...))
		}
	}
	return findings, nil
}

// reportValues flags undocumented exported names in const/var groups. A
// name is documented if its group has a doc comment OR its own spec inside
// the group does (the usual style for enums like StopReason constants —
// go/doc's Value.Doc carries only the group comment, so specs are checked
// on the AST directly).
func reportValues(findings *[]string, at func(string) string, values []*doc.Value) {
	for _, v := range values {
		if strings.TrimSpace(v.Doc) != "" {
			continue
		}
		for _, spec := range v.Decl.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if vs.Doc.Text() != "" || vs.Comment.Text() != "" {
				continue
			}
			for _, name := range vs.Names {
				if ast.IsExported(name.Name) {
					*findings = append(*findings, at(fmt.Sprintf("exported value %s is undocumented", name.Name)))
				}
			}
		}
	}
}

// mdLink matches inline markdown links [text](target) and the title form
// [text](target "Title"); images share the syntax and are checked the same
// way. mdLinkDef matches reference-style definitions (`[ref]: target`) —
// checking definitions covers every [text][ref] use of them.
var (
	mdLink    = regexp.MustCompile(`\]\(\s*([^)\s]+)(?:\s+"[^"]*")?\s*\)`)
	mdLinkDef = regexp.MustCompile(`(?m)^\[[^\]]+\]:\s*(\S+)`)
)

// lintLinks checks every relative link in path (a .md file, or a directory
// scanned recursively for .md files) resolves to an existing file.
func lintLinks(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var files []string
	if info.IsDir() {
		err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".md") {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		files = []string{path}
	}
	var findings []string
	for _, f := range files {
		fs, err := lintFileLinks(f)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

func lintFileLinks(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var findings []string
	links := mdLink.FindAllStringSubmatch(string(data), -1)
	links = append(links, mdLinkDef.FindAllStringSubmatch(string(data), -1)...)
	for _, m := range links {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue // external; reachability is not this linter's job
		}
		// In-page anchors can't be resolved without a markdown renderer;
		// only the file part of a cross-file link is checked.
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(file), target)
		if _, err := os.Stat(resolved); err != nil {
			findings = append(findings, fmt.Sprintf("%s: dead link %q (%s)", file, m[1], resolved))
		}
	}
	return findings, nil
}

// mdCitation matches a markdown file named in prose: a bare name such as
// OPERATIONS.md or a slash path such as docs/OPERATIONS.md.
var mdCitation = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// lintCommentCitations reports every *.md file cited in a Go comment under
// root that exists neither relative to root nor under root/docs. Hidden and
// testdata directories are skipped, and so are URLs.
func lintCommentCitations(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var sc scanner.Scanner
		sc.Init(fset.AddFile(p, -1, len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := sc.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok != token.COMMENT {
				continue
			}
			for _, m := range mdCitation.FindAllStringIndex(lit, -1) {
				name := lit[m[0]:m[1]]
				if m[0] > 0 && lit[m[0]-1] == ':' {
					continue // the path part of a URL
				}
				if !mdExists(root, name) {
					findings = append(findings, fmt.Sprintf("%s: comment cites missing %s",
						fset.Position(pos+token.Pos(m[0])), name))
				}
			}
		}
	})
	return findings, err
}

// mdExists reports whether a cited markdown file resolves from the
// repository root or its docs/ directory.
func mdExists(root, name string) bool {
	for _, dir := range []string{root, filepath.Join(root, "docs")} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}
