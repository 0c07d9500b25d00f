package gqbe

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gqbe/internal/testkg"
	"gqbe/internal/topk"
)

func fig1Engine(t *testing.T) *Engine {
	t.Helper()
	b := NewBuilder()
	for _, tr := range testkg.Fig1Triples() {
		b.Add(tr[0], tr[1], tr[2])
	}
	e, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return e
}

func TestBuilderAndCounts(t *testing.T) {
	e := fig1Engine(t)
	if e.NumEntities() == 0 || e.NumFacts() != 28 || e.NumPredicates() == 0 {
		t.Errorf("counts wrong: %d entities, %d facts, %d predicates",
			e.NumEntities(), e.NumFacts(), e.NumPredicates())
	}
	if !e.HasEntity("Jerry Yang") || e.HasEntity("Nobody") {
		t.Error("HasEntity wrong")
	}
}

func TestLoadFromReader(t *testing.T) {
	var b strings.Builder
	for _, tr := range testkg.Fig1Triples() {
		fmt.Fprintf(&b, "%s\t%s\t%s\n", tr[0], tr[1], tr[2])
	}
	e, err := Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if e.NumFacts() != 28 {
		t.Errorf("NumFacts = %d", e.NumFacts())
	}
}

func TestLoadEmptyGraphFails(t *testing.T) {
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestQueryPublicAPI(t *testing.T) {
	e := fig1Engine(t)
	res, err := e.Query([]string{"Jerry Yang", "Yahoo!"}, &Options{K: 10, KPrime: 10, MQGSize: 10})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	found := false
	for _, a := range res.Answers {
		if strings.Join(a.Entities, "|") == "Steve Wozniak|Apple Inc." {
			found = true
		}
		if strings.Join(a.Entities, "|") == "Jerry Yang|Yahoo!" {
			t.Error("query tuple returned")
		}
	}
	if !found {
		t.Error("Wozniak/Apple missing")
	}
	if res.Stats.MQGEdges == 0 || res.Stats.NodesEvaluated == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
}

func TestQueryNilOptionsDefaults(t *testing.T) {
	e := fig1Engine(t)
	res, err := e.Query([]string{"Jerry Yang", "Yahoo!"}, nil)
	if err != nil {
		t.Fatalf("Query with nil options: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Error("no answers with defaults")
	}
}

func TestQueryMultiPublicAPI(t *testing.T) {
	e := fig1Engine(t)
	res, err := e.QueryMulti([][]string{
		{"Jerry Yang", "Yahoo!"},
		{"Steve Wozniak", "Apple Inc."},
	}, &Options{K: 10, KPrime: 10, MQGSize: 12})
	if err != nil {
		t.Fatalf("QueryMulti: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range res.Answers {
		s := strings.Join(a.Entities, "|")
		if s == "Jerry Yang|Yahoo!" || s == "Steve Wozniak|Apple Inc." {
			t.Errorf("input tuple %s returned", s)
		}
	}
}

func TestQueryErrorsPublic(t *testing.T) {
	e := fig1Engine(t)
	if _, err := e.Query(nil, nil); err == nil {
		t.Error("empty tuple accepted")
	}
	if _, err := e.Query([]string{"No Such Entity"}, nil); err == nil {
		t.Error("unknown entity accepted")
	}
	if _, err := e.QueryMulti(nil, nil); err == nil {
		t.Error("no tuples accepted")
	}
	if _, err := e.QueryMulti([][]string{{"Jerry Yang", "Yahoo!"}, {"Missing"}}, nil); err == nil {
		t.Error("unknown entity in multi accepted")
	}
}

func TestBuilderMisuse(t *testing.T) {
	b := NewBuilder()
	b.Add("a", "p", "b")
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("double Build accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add after Build did not panic")
		}
	}()
	b.Add("x", "p", "y")
}

func TestScoresDescending(t *testing.T) {
	e := fig1Engine(t)
	res, err := e.Query([]string{"Jerry Yang", "Yahoo!"}, &Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i-1].Score < res.Answers[i].Score {
			t.Fatal("answers not sorted by score")
		}
	}
}

// TestAnswersCompact pins what the shared backing arrays of a Result must
// not change: every Key is the tuple's topk.TupleKey, appending to one
// answer's Entities leaves the next answer intact, and a mapped engine's
// answers stay readable after Close.
func TestAnswersCompact(t *testing.T) {
	e := fig1Engine(t)
	query := []string{"Jerry Yang", "Yahoo!"}
	opts := &Options{K: 10, KPrime: 10, MQGSize: 10}
	res, err := e.Query(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) < 2 {
		t.Fatalf("%d answers, want at least 2", len(res.Answers))
	}
	for _, a := range res.Answers {
		ids, err := e.resolve(a.Entities)
		if err != nil {
			t.Fatal(err)
		}
		if want := topk.TupleKey(ids); a.Key != want {
			t.Errorf("%v: Key %q, want %q", a.Entities, a.Key, want)
		}
	}
	next := append([]string(nil), res.Answers[1].Entities...)
	_ = append(res.Answers[0].Entities, "appended")
	if !slices.Equal(res.Answers[1].Entities, next) {
		t.Errorf("appending to answer 0 changed answer 1 to %v, was %v", res.Answers[1].Entities, next)
	}

	path := filepath.Join(t.TempDir(), "fig1.snap")
	if err := e.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := mapped.Query(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if len(mres.Answers) != len(res.Answers) {
		t.Fatalf("mapped engine returned %d answers, heap engine %d", len(mres.Answers), len(res.Answers))
	}
	for i, a := range mres.Answers {
		want := res.Answers[i]
		if !slices.Equal(a.Entities, want.Entities) || a.Key != want.Key || a.Score != want.Score {
			t.Errorf("answer %d after Close: %v %q %v, want %v %q %v", i, a.Entities, a.Key, a.Score, want.Entities, want.Key, want.Score)
		}
	}
}
