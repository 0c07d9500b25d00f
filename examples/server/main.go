// Server example: stand up the gqbed serving subsystem in-process over the
// paper's Fig. 1 knowledge-graph excerpt, then query it with curl.
//
// Run with: go run ./examples/server
//
// Then from another terminal:
//
//	# query by example — "entities like ⟨Jerry Yang, Yahoo!⟩"
//	curl -s localhost:8080/v1/query -d '{"tuple":["Jerry Yang","Yahoo!"]}'
//
//	# repeat it: the answer now comes from the result cache ("cached":true)
//	curl -s localhost:8080/v1/query -d '{"tuple":["Jerry Yang","Yahoo!"]}'
//
//	# multi-tuple query sharpening the intent (§III-D of the paper)
//	curl -s localhost:8080/v1/query \
//	     -d '{"tuples":[["Jerry Yang","Yahoo!"],["Sergey Brin","Google"]]}'
//
//	# batch: several queries in one request, answered per item; duplicate
//	# items are computed once ("deduped":true) and repeats of anything
//	# already cached or in flight never touch the engine
//	curl -s localhost:8080/v1/query:batch -d '{"queries":[
//	       {"tuple":["Jerry Yang","Yahoo!"]},
//	       {"tuple":["Jerry Yang","Yahoo!"]},
//	       {"tuple":["Sergey Brin","Google"],"k":5},
//	       {"tuple":["No Such Entity","Yahoo!"]}]}'
//
//	# bound the query: an impossible 1ms-style deadline returns a timeout
//	curl -s localhost:8080/v1/query \
//	     -d '{"tuple":["Jerry Yang","Yahoo!"],"timeout_ms":1,"no_cache":true}'
//
//	# entity lookup, liveness, and serving metrics — docs/OPERATIONS.md
//	# has the field-by-field /statz glossary
//	curl -s localhost:8080/v1/entity/Jerry%20Yang
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/statz
//
// For a standalone daemon over a TSV graph file, use cmd/gqbed instead.
// The production startup path builds the store across all cores on the
// first start and writes a binary snapshot, so every restart skips parsing
// and index construction entirely:
//
//	go run ./cmd/kggen -dataset freebase -out /tmp/freebase.tsv
//	go run ./cmd/gqbed -graph /tmp/freebase.tsv -addr :8080 \
//	    -build-shards 0 -snapshot /tmp/freebase.snap -snapshot-write
//
// On restart the existing snapshot wins over -graph (a corrupt one falls
// back to rebuilding). The full flag reference is docs/OPERATIONS.md.
package main

import (
	"log"
	"net/http"

	"gqbe"
	"gqbe/internal/server"
	"gqbe/internal/testkg"
)

func main() {
	b := gqbe.NewBuilder()
	for _, t := range testkg.Fig1Triples() {
		b.Add(t[0], t[1], t[2])
	}
	eng, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	srv := server.New(eng, server.Config{})
	log.Printf("serving %d entities / %d facts on :8080 — try:", eng.NumEntities(), eng.NumFacts())
	log.Printf(`  curl -s localhost:8080/v1/query -d '{"tuple":["Jerry Yang","Yahoo!"]}'`)
	log.Fatal(http.ListenAndServe(":8080", srv))
}
