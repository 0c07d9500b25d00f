// Package kgsynth generates the synthetic knowledge graphs this repository
// substitutes for the Freebase and DBpedia dumps the paper evaluates on
// (multi-GB downloads, unavailable offline; the properties kept are listed
// below). Two generators are provided:
//
//   - Freebase: a people/companies/places/products graph carrying the
//     twenty F-queries of Table I;
//   - DBpedia: a smaller graph with a different label vocabulary carrying
//     the eight D-queries.
//
// The generators preserve the properties GQBE's algorithms exercise:
// heavy-tailed edge-label frequencies (ief is informative), hub nodes with
// high participation degree (p(e) is informative), ground-truth answer
// tuples that share relationship structure with the query tuple, distractor
// entities that share only part of it, and out-of-table structural matches
// (real tables are incomplete, which is why the paper's P@k sits below 1).
//
// Everything is deterministic for a given Config.
package kgsynth

import (
	"fmt"
	"math/rand"

	"gqbe/internal/graph"
)

// Config parameterizes a generated dataset.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
	// Scale multiplies domain sizes; 1.0 is the default benchmark size
	// (9 387 nodes / 16 613 edges for the Freebase-like graph at seed 42).
	Scale float64
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
}

// Query is one workload entry: the analogue of a Table I row.
type Query struct {
	// ID names the query after its Table I counterpart (F1..F20, D1..D8).
	ID string
	// Description says what the paper's query asked for.
	Description string
	// Table is the full ground-truth table, each row one entity tuple by
	// name. Following the paper's protocol, Table[0] is the default query
	// tuple and the remaining rows are the ground truth; multi-tuple
	// experiments additionally use Table[1] and Table[2] as query tuples.
	Table [][]string
	// OffTable lists planted tuples that satisfy the query's relationship
	// structure but were left out of the curated table — the synthetic
	// counterpart of real tables being incomplete. Accuracy metrics ignore
	// them (as the paper's do); the simulated user study counts them as
	// good answers, since a human judge would.
	OffTable [][]string
}

// QueryTuple returns the default query tuple (row 0).
func (q *Query) QueryTuple() []string { return q.Table[0] }

// GroundTruth returns the table minus the first n rows (those used as query
// tuples).
func (q *Query) GroundTruth(n int) [][]string {
	if n >= len(q.Table) {
		return nil
	}
	return q.Table[n:]
}

// Dataset is a generated graph plus its query workload.
type Dataset struct {
	Name    string
	Graph   *graph.Graph
	Queries []Query
}

// Query returns the workload entry with the given ID.
func (d *Dataset) Query(id string) (*Query, bool) {
	for i := range d.Queries {
		if d.Queries[i].ID == id {
			return &d.Queries[i], true
		}
	}
	return nil, false
}

// MustQuery is Query, panicking on unknown IDs (for examples and benches).
func (d *Dataset) MustQuery(id string) *Query {
	q, ok := d.Query(id)
	if !ok {
		panic(fmt.Sprintf("kgsynth: unknown query %q", id))
	}
	return q
}

// Tuple resolves a name tuple against the dataset's graph.
func (d *Dataset) Tuple(names []string) ([]graph.NodeID, error) {
	out := make([]graph.NodeID, len(names))
	for i, n := range names {
		id, ok := d.Graph.Node(n)
		if !ok {
			return nil, fmt.Errorf("kgsynth: entity %q not in graph", n)
		}
		out[i] = id
	}
	return out, nil
}

// builder accumulates a graph deterministically.
type builder struct {
	g   *graph.Graph
	rng *rand.Rand
	cfg Config
	// prodSeq numbers the unique object nodes of rare product facts; see
	// personScaffold.rareLabels for why rare facts matter.
	prodSeq int
}

// backfill adds count background entities carrying a single edge with the
// given label into one of the shared concept values. Small domains would
// otherwise own globally-rare labels whose few hub values form high-weight
// bridges between unrelated entities; in the real datasets those labels are
// carried by orders of magnitude more entities, and the participation
// degree crushes such bridges. Backfill restores that property.
func (b *builder) backfill(prefix, label string, values []string, count int) {
	for i := 0; i < b.n(count); i++ {
		b.edge(fmt.Sprintf("%s %d", prefix, i+1), label, pick(b.rng, values))
	}
}

// rareFact attaches, with probability 1/2, one rare entity-specific fact to
// e — the product-side counterpart of the person scaffold's rare facts.
// Labels are scoped per entity kind ("aircraft_fact_3", "couple_fact_7"):
// in real knowledge graphs rare properties belong to a type, so a couple's
// obscure attribute never matches an aircraft's. A shared pool would let a
// single rare-label edge outscore a query's whole relationship structure
// with cross-type junk.
func (b *builder) rareFact(kind, e string) {
	if b.rng.Float64() >= 0.5 {
		return
	}
	b.prodSeq++
	b.edge(e, fmt.Sprintf("%s_fact_%d", kind, b.rng.Intn(12)), fmt.Sprintf("detail %d", b.prodSeq))
}

func newBuilder(cfg Config) *builder {
	cfg.fill()
	return &builder{g: graph.New(), rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// n scales a base count by the config scale, minimum 1.
func (b *builder) n(base int) int {
	v := int(float64(base) * b.cfg.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (b *builder) edge(s, p, o string) { b.g.AddEdge(s, p, o) }

// pick returns a uniformly random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// zipfIndex returns an index in [0, n) with a heavy head: index 0 is the
// most likely. Used to make hubs (one country dominates nationalities, a few
// cities dominate headquarters) so participation degrees spread realistically.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// three draws, take the min: cheap skew without math.Pow
	i := rng.Intn(n)
	if j := rng.Intn(n); j < i {
		i = j
	}
	if j := rng.Intn(n); j < i {
		i = j
	}
	return i
}

// names generates "Prefix 1".."Prefix n".
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %d", prefix, i+1)
	}
	return out
}

// geography builds the place hierarchy shared by both datasets: cities in
// states/regions in countries, with located_in chains. Returns the name
// slices for reuse.
type geography struct {
	countries, states, cities []string
}

func (b *builder) buildGeography(locLabel string, nCountries, nStates, nCities int) geography {
	geo := geography{
		countries: names("Country", nCountries),
		states:    names("State", nStates),
		cities:    names("City", nCities),
	}
	for i, s := range geo.states {
		b.edge(s, locLabel, geo.countries[i%len(geo.countries)])
	}
	for i, c := range geo.cities {
		b.edge(c, locLabel, geo.states[i%len(geo.states)])
	}
	return geo
}

// personScaffold attaches the common biographical edges the paper's examples
// rely on (nationality, places_lived, education). Probabilities < 1 leave
// some people without an attribute, so content scores differentiate answers.
type personScaffold struct {
	natLabel, livedLabel, eduLabel string
	geo                            geography
	universities                   []string
	// rareLabels is a pool of rare relation labels; each person gets a
	// couple of rare facts pointing at entity-specific objects. These edges
	// carry the highest ief/p weights, enter MQGs, and make deep lattice
	// conjunctions null — exactly the behavior real Freebase entities
	// induce, and what keeps exhaustive lattice evaluation tractable.
	rareLabels []string
	rareSeq    int
}

// rareFactLabels builds a pool of rare biographical relation labels.
func rareFactLabels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_fact_%d", prefix, i)
	}
	return out
}

func (b *builder) scaffoldPerson(p string, s *personScaffold) {
	// Nationality: heavy-headed so Country 1 is a high-participation hub.
	b.edge(p, s.natLabel, s.geo.countries[zipfIndex(b.rng, len(s.geo.countries))])
	if b.rng.Float64() < 0.8 {
		b.edge(p, s.livedLabel, s.geo.cities[zipfIndex(b.rng, len(s.geo.cities))])
	}
	if len(s.universities) > 0 && b.rng.Float64() < 0.6 {
		b.edge(p, s.eduLabel, pick(b.rng, s.universities))
	}
	if len(s.rareLabels) > 0 {
		for k := 0; k < 2; k++ {
			if b.rng.Float64() < 0.5 {
				s.rareSeq++
				b.edge(p, pick(b.rng, s.rareLabels), fmt.Sprintf("%s detail %d", s.natLabel, s.rareSeq))
			}
		}
	}
}

// noiseAttributes sprinkles a long tail of rare labels over random existing
// entities, widening the label-frequency distribution (Freebase has 5,428
// labels; most are rare). Each label attr_i links a handful of subjects to a
// small set of value nodes.
func (b *builder) noiseAttributes(prefix string, nLabels, perLabel int, subjects []string) {
	for i := 0; i < nLabels; i++ {
		label := fmt.Sprintf("%s_%d", prefix, i)
		nVals := 1 + b.rng.Intn(3)
		vals := make([]string, nVals)
		for j := range vals {
			vals[j] = fmt.Sprintf("%s_val_%d_%d", prefix, i, j)
		}
		for j := 0; j < perLabel; j++ {
			b.edge(pick(b.rng, subjects), label, pick(b.rng, vals))
		}
	}
}
