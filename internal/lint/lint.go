// Package lint is the repo-invariant analyzer suite behind cmd/gqbelint.
//
// The engine's headline guarantees — bit-identical top-k answers on every
// run, an allocation-free flattened hot path, and end-to-end
// context cancellation — are behavioral invariants that ordinary tests can
// only sample. This package turns them into machine-checked source rules
// using nothing but the standard library's go/parser, go/ast, and go/types:
// each Analyzer inspects one typechecked package and reports Diagnostics,
// and Run applies the //gqbelint:ignore suppression protocol on top.
//
// Two comment directives drive the suite:
//
//	//gqbe:hotpath
//	    placed in a function's doc comment, marks it as part of the
//	    allocation-free hot path; the hotalloc analyzer then forbids
//	    allocation-prone constructs inside its body.
//
//	//gqbelint:ignore <rule> <reason>
//	    on a finding's own line (trailing comment) or the line directly
//	    above it, suppresses findings of exactly that rule there. The
//	    reason is mandatory, and an ignore that suppresses nothing is
//	    itself reported — stale suppressions never accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message. String renders the canonical
// "path/file.go:line: rule: message" form printed by cmd/gqbelint.
type Diagnostic struct {
	// Pos locates the offending construct.
	Pos token.Position
	// Rule names the analyzer rule that produced the finding
	// (determinism, hotalloc, ctxflow, sentinels, or the directive
	// meta-rules bad-ignore and unused-ignore).
	Rule string
	// Message explains the finding.
	Message string
}

// String renders the diagnostic as "file:line: rule: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one rule set run over a typechecked package.
type Analyzer interface {
	// Name returns the rule name findings are reported (and ignored) under.
	Name() string
	// Check inspects the package and returns its findings.
	Check(p *Package) []Diagnostic
}

// directive prefixes recognized in comments.
const (
	hotpathDirective = "gqbe:hotpath"
	ignoreDirective  = "gqbelint:ignore"
)

// ignoreEntry is one parsed //gqbelint:ignore directive.
type ignoreEntry struct {
	pos    token.Position // position of the directive comment
	rule   string
	reason string
	used   bool
}

// Run executes every analyzer over every package, applies ignore
// directives, and returns the surviving diagnostics sorted by file, line,
// and rule. Malformed directives (missing rule or reason) and directives
// that suppressed nothing are returned as diagnostics themselves, so a
// clean exit proves every suppression is both well-formed and live.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		ignores, bad := collectIgnores(p)
		out = append(out, bad...)
		for _, a := range analyzers {
			for _, d := range a.Check(p) {
				if suppressed(ignores, d) {
					continue
				}
				out = append(out, d)
			}
		}
		for _, ig := range ignores {
			if !ig.used {
				out = append(out, Diagnostic{
					Pos:     ig.pos,
					Rule:    "unused-ignore",
					Message: fmt.Sprintf("ignore directive for rule %q suppresses nothing; delete it", ig.rule),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// collectIgnores parses every //gqbelint:ignore directive in the package.
// A directive must name a rule and carry a non-empty reason; violations are
// returned as bad-ignore diagnostics.
func collectIgnores(p *Package) ([]*ignoreEntry, []Diagnostic) {
	var entries []*ignoreEntry
	var bad []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
				rule, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if rule == "" || reason == "" {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Rule:    "bad-ignore",
						Message: "malformed directive: want //gqbelint:ignore <rule> <reason>",
					})
					continue
				}
				entries = append(entries, &ignoreEntry{pos: pos, rule: rule, reason: reason})
			}
		}
	}
	return entries, bad
}

// suppressed reports whether d is covered by an ignore directive: same
// file, same rule, and the directive sits on the finding's line (trailing
// comment) or the line directly above it. Matching directives are marked
// used.
func suppressed(ignores []*ignoreEntry, d Diagnostic) bool {
	hit := false
	for _, ig := range ignores {
		if ig.rule != d.Rule || ig.pos.Filename != d.Pos.Filename {
			continue
		}
		if ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1 {
			ig.used = true
			hit = true
		}
	}
	return hit
}

// hasDirective reports whether a doc comment group contains the given
// directive on a line of its own.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive {
			return true
		}
	}
	return false
}
