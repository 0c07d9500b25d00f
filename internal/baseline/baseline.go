// Package baseline implements the paper's Baseline comparator (§VI): like
// GQBE it explores the query lattice bottom-up and prunes the ancestors of
// null nodes, but it traverses breadth-first instead of best-first and has
// no top-k early termination — it stops only when every lattice node is
// either evaluated or pruned. Figs. 14 and 15 compare it against the
// best-first search of internal/topk.
package baseline

import (
	"errors"
	"fmt"
	"sort"

	"gqbe/internal/exec"
	"gqbe/internal/graph"
	"gqbe/internal/lattice"
	"gqbe/internal/scoring"
	"gqbe/internal/storage"
	"gqbe/internal/topk"
)

// Options tunes the baseline run.
type Options struct {
	// K is the number of answers to return.
	K int
	// KPrime is the stage-2 re-ranking pool, matching GQBE's two-stage
	// ranking so accuracy comparisons are apples-to-apples.
	KPrime int
	// MaxRows bounds materialized rows per lattice node.
	MaxRows int
	// MaxEvaluations caps evaluated nodes; the exhaustive traversal can
	// touch exponentially many lattice nodes when few of them are null.
	// 0 defaults to 100000.
	MaxEvaluations int
}

func (o *Options) fill() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.KPrime < o.K {
		o.KPrime = 4 * o.K
		if o.KPrime < 100 {
			o.KPrime = 100
		}
	}
	if o.MaxRows <= 0 {
		o.MaxRows = exec.DefaultMaxRows
	}
	if o.MaxEvaluations <= 0 {
		o.MaxEvaluations = 100000
	}
}

// Result mirrors topk.Result for the baseline traversal.
type Result struct {
	Answers        []topk.Answer
	NodesEvaluated int
	NullNodes      int
	TuplesSeen     int
	// Truncated reports that MaxEvaluations stopped the traversal before
	// the lattice was exhausted.
	Truncated bool
	// RowBudgetSkips counts lattice nodes skipped for join blow-ups.
	RowBudgetSkips int
}

// Search evaluates the lattice breadth-first from the minimal query trees.
func Search(store *storage.Store, lat *lattice.Lattice, exclude [][]graph.NodeID, opts Options) (*Result, error) {
	opts.fill()
	ev := exec.New(store, lat, exec.WithMaxRows(opts.MaxRows))
	sc := scoring.New(lat, ev)

	excluded := make(map[string]bool, len(exclude))
	for _, t := range exclude {
		excluded[key(t)] = true
	}

	type cand struct {
		tuple     []graph.NodeID
		bestS     float64
		bestFull  float64
		bestGraph lattice.EdgeSet
	}
	tuples := make(map[string]*cand)

	var nulls []lattice.EdgeSet
	pruned := func(q lattice.EdgeSet) bool {
		for _, n := range nulls {
			if q.Subsumes(n) {
				return true
			}
		}
		return false
	}

	queue := append([]lattice.EdgeSet(nil), lat.MinimalTrees()...)
	seen := make(map[lattice.EdgeSet]bool, len(queue))
	for _, q := range queue {
		seen[q] = true
	}
	res := &Result{}
	for head := 0; head < len(queue); head++ {
		if ev.Evaluated() >= opts.MaxEvaluations {
			res.Truncated = true
			break
		}
		q := queue[head]
		if pruned(q) {
			continue
		}
		rows, err := ev.Evaluate(q)
		if err != nil {
			if errors.Is(err, exec.ErrTooManyRows) {
				res.RowBudgetSkips++
				continue
			}
			return nil, fmt.Errorf("baseline: evaluating lattice node: %w", err)
		}
		nonExcluded := 0
		sScore := lat.SScore(q)
		slots := sc.Slots(nil, q)
		for i := 0; i < rows.Len(); i++ {
			row := rows.Row(i)
			tuple := ev.TupleOf(row)
			k := key(tuple)
			if excluded[k] {
				continue
			}
			nonExcluded++
			full := sScore + sc.CScore(q, sc.Mask(slots, row))
			c, ok := tuples[k]
			if !ok {
				c = &cand{tuple: append([]graph.NodeID(nil), tuple...)}
				tuples[k] = c
			}
			if sScore > c.bestS || (sScore == c.bestS && c.bestGraph == 0) {
				c.bestS = sScore
				c.bestGraph = q
			}
			if full > c.bestFull {
				c.bestFull = full
			}
		}
		if nonExcluded == 0 {
			res.NullNodes++
			nulls = append(nulls, q)
			continue
		}
		for _, p := range lat.Parents(q) {
			if !seen[p] && !pruned(p) {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	res.NodesEvaluated = ev.Evaluated()
	res.TuplesSeen = len(tuples)

	all := make([]*cand, 0, len(tuples))
	for _, c := range tuples {
		all = append(all, c)
	}
	// Same stage-1 ordering as GQBE (ties at the k′ boundary broken by the
	// full score) so accuracy differences reflect the traversal only.
	sort.Slice(all, func(i, j int) bool {
		if all[i].bestS != all[j].bestS {
			return all[i].bestS > all[j].bestS
		}
		if all[i].bestFull != all[j].bestFull {
			return all[i].bestFull > all[j].bestFull
		}
		return key(all[i].tuple) < key(all[j].tuple)
	})
	if len(all) > opts.KPrime {
		all = all[:opts.KPrime]
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].bestFull != all[j].bestFull {
			return all[i].bestFull > all[j].bestFull
		}
		return key(all[i].tuple) < key(all[j].tuple)
	})
	if len(all) > opts.K {
		all = all[:opts.K]
	}
	res.Answers = make([]topk.Answer, len(all))
	for i, c := range all {
		res.Answers[i] = topk.Answer{Tuple: c.tuple, Score: c.bestFull, SScore: c.bestS, BestGraph: c.bestGraph}
	}
	return res, nil
}

func key(t []graph.NodeID) string {
	s := ""
	for i, v := range t {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", v)
	}
	return s
}
