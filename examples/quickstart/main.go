// Quickstart: build the paper's Fig. 1 knowledge-graph excerpt in a few
// lines and ask GQBE the running-example query — "entities like
// ⟨Jerry Yang, Yahoo!⟩" — which should surface the other founder/company
// pairs without any query language.
//
// Run with: go run ./examples/quickstart
//
// The Builder below is the programmatic path for small graphs. For real
// TSV knowledge graphs use the loaders instead — gqbe.LoadFile, or at
// multi-GB scale the fast-startup pair from docs/ARCHITECTURE.md:
//
//	eng, _ := gqbe.LoadFile("kg.tsv")           // parse + build once
//	_ = eng.WriteSnapshotFile("kg.snap")        // …then restart via
//	eng, _ = gqbe.OpenSnapshotMapped("kg.snap") // no parse, no indexing
package main

import (
	"fmt"
	"log"
	"strings"

	"gqbe"
)

func main() {
	b := gqbe.NewBuilder()
	for _, t := range [][3]string{
		{"Jerry Yang", "founded", "Yahoo!"},
		{"David Filo", "founded", "Yahoo!"},
		{"Steve Wozniak", "founded", "Apple Inc."},
		{"Steve Jobs", "founded", "Apple Inc."},
		{"Sergey Brin", "founded", "Google"},
		{"Larry Page", "founded", "Google"},
		{"Bill Gates", "founded", "Microsoft"},
		{"Jerry Yang", "education", "Stanford"},
		{"Sergey Brin", "education", "Stanford"},
		{"Larry Page", "education", "Stanford"},
		{"Jerry Yang", "places_lived", "San Jose"},
		{"Steve Wozniak", "places_lived", "San Jose"},
		{"Jerry Yang", "nationality", "USA"},
		{"Steve Wozniak", "nationality", "USA"},
		{"Sergey Brin", "nationality", "USA"},
		{"Bill Gates", "nationality", "USA"},
		{"Yahoo!", "headquartered_in", "Sunnyvale"},
		{"Apple Inc.", "headquartered_in", "Cupertino"},
		{"Google", "headquartered_in", "Mountain View"},
		{"Microsoft", "headquartered_in", "Redmond"},
		{"Sunnyvale", "located_in", "California"},
		{"Cupertino", "located_in", "California"},
		{"Mountain View", "located_in", "California"},
		{"San Jose", "located_in", "California"},
		{"Stanford", "located_in", "California"},
		{"Redmond", "located_in", "Washington"},
		{"California", "located_in", "USA"},
		{"Washington", "located_in", "USA"},
	} {
		b.Add(t[0], t[1], t[2])
	}
	// Background entities give the predicates realistic relative
	// frequencies: with only the excerpt above, places_lived occurs twice
	// in the whole graph and would outweigh founded. GQBE's edge weighting
	// (inverse label frequency / participation degree) assumes real-world
	// statistics, where founding a company is rare and living in a city is
	// not.
	cities := []string{"San Jose", "Sunnyvale", "Cupertino", "Mountain View", "Redmond", "Oakland"}
	for i := 0; i < 18; i++ {
		p := fmt.Sprintf("Resident %d", i+1)
		b.Add(p, "places_lived", cities[i%len(cities)])
		b.Add(p, "nationality", "USA")
		b.Add(p, "education", []string{"Stanford", "Berkeley"}[i%2])
	}
	for i := 0; i < 8; i++ {
		b.Add(fmt.Sprintf("Startup %d", i+1), "headquartered_in", cities[i%len(cities)])
	}
	b.Add("Oakland", "located_in", "California")
	b.Add("Berkeley", "located_in", "California")
	eng, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Query by example: ⟨Jerry Yang, Yahoo!⟩")
	res, err := eng.Query([]string{"Jerry Yang", "Yahoo!"}, &gqbe.Options{K: 5, KPrime: 10, MQGSize: 10})
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range res.Answers {
		fmt.Printf("%d. ⟨%s⟩  score=%.3f\n", i+1, strings.Join(a.Entities, ", "), a.Score)
	}
	fmt.Printf("\n(derived a %d-edge hidden query graph, evaluated %d lattice nodes in %v)\n",
		res.Stats.MQGEdges, res.Stats.NodesEvaluated, res.Stats.Processing)
}
