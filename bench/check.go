//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"gqbe"
	"gqbe/internal/server"
)

// oracle answers operations on an in-process engine of its own, loaded apart
// from the program under test. For the served workloads that is the
// single-node reference; for fleet-cold it is the router ≡ single-node
// property; for lib-* it is a second engine restored from the snapshot
// checked against the one built from triples.
type oracle struct {
	eng  *gqbe.Engine
	mu   sync.Mutex
	memo map[string][]gqbe.Answer
}

func newOracle(eng *gqbe.Engine) *oracle {
	return &oracle{eng: eng, memo: map[string][]gqbe.Answer{}}
}

func opKey(o op) string { return fmt.Sprintf("%s#%d", o.Entry.ID, o.K) }

func (or *oracle) answers(o op) ([]gqbe.Answer, error) {
	key := opKey(o)
	or.mu.Lock()
	ans, ok := or.memo[key]
	or.mu.Unlock()
	if ok {
		return ans, nil
	}
	res, err := or.eng.QueryMultiCtx(context.Background(), o.Entry.Tuples, &gqbe.Options{K: o.K})
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", key, err)
	}
	or.mu.Lock()
	or.memo[key] = res.Answers
	or.mu.Unlock()
	return res.Answers, nil
}

// warm computes the answers of ops on every core, outside any timed region.
func (or *oracle) warm(ops []op) error {
	work := make(chan op)
	errs := make(chan error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				if _, err := or.answers(o); err != nil {
					errs <- err
					for range work { // drain so the sender never blocks
					}
					return
				}
			}
		}()
	}
	for _, o := range ops {
		work <- o
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// wellFormed checks what every answer list must satisfy whatever the
// engine: at most k answers, scores never increasing.
func wellFormed(scores []float64, k int) error {
	if len(scores) > k {
		return fmt.Errorf("%d answers for k=%d", len(scores), k)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			return fmt.Errorf("score rises at rank %d: %v after %v", i, scores[i], scores[i-1])
		}
	}
	return nil
}

// sameAnswers compares entities and score bits, rank by rank.
func sameAnswers(want []gqbe.Answer, entities [][]string, scores []float64) error {
	if len(want) != len(entities) {
		return fmt.Errorf("%d answers, oracle has %d", len(entities), len(want))
	}
	for i, a := range want {
		if math.Float64bits(a.Score) != math.Float64bits(scores[i]) {
			return fmt.Errorf("rank %d: score %v, oracle %v", i, scores[i], a.Score)
		}
		if len(a.Entities) != len(entities[i]) {
			return fmt.Errorf("rank %d: arity %d, oracle %d", i, len(entities[i]), len(a.Entities))
		}
		for j, e := range a.Entities {
			if e != entities[i][j] {
				return fmt.Errorf("rank %d: entity %q, oracle %q", i, entities[i][j], e)
			}
		}
	}
	return nil
}

func splitAnswers(ans []gqbe.Answer) (entities [][]string, scores []float64) {
	for _, a := range ans {
		entities = append(entities, a.Entities)
		scores = append(scores, a.Score)
	}
	return
}

// checkLib verifies one in-process result; every lib-* op is compared.
func checkLib(or *oracle, o op, res *gqbe.Result) error {
	entities, scores := splitAnswers(res.Answers)
	if err := wellFormed(scores, o.K); err != nil {
		return err
	}
	want, err := or.answers(o)
	if err != nil {
		return err
	}
	return sameAnswers(want, entities, scores)
}

// checkBody verifies one 200 response body: the structural checks always,
// the comparison with the oracle's answers when compare is set.
func checkBody(o op, body []byte, want []gqbe.Answer, compare bool) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	entities := make([][]string, len(resp.Answers))
	scores := make([]float64, len(resp.Answers))
	for i, a := range resp.Answers {
		entities[i], scores[i] = a.Entities, a.Score
	}
	if err := wellFormed(scores, o.K); err != nil {
		return err
	}
	if !compare {
		return nil
	}
	return sameAnswers(want, entities, scores)
}
