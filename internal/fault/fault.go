// Package fault is the deterministic fault-injection registry behind the
// engine's graceful-degradation testing: a fixed set of named injection
// points threaded through the I/O, storage, execution, and serving layers,
// each of which can be armed with a seeded probabilistic or count-triggered
// rule. The chaos test suites and gqbed's -fault flag use it to prove the
// system degrades — labeled stale answers, bounded partial results, 500s
// with request IDs — instead of crashing or serving wrong answers.
//
// Disabled is the permanent production state and costs one atomic pointer
// load plus a nil check per injection point (no locks, no allocation, no
// branch beyond the nil test), which keeps the hot paths inside their
// benchmark budgets. Arming is all-or-nothing: Enable publishes a fresh
// immutable registry, Disable removes it.
//
// Determinism: rules never read the wall clock or math/rand. Count
// triggers (every/after/limit) fire as a pure function of the point's hit
// ordinal, and probabilistic triggers hash the hit ordinal with the rule's
// seed (SplitMix64), so a single-threaded caller replays the exact same
// fault schedule on every run. Under concurrency the ordinal assignment
// interleaves, but the schedule is still a function of arrival order alone.
//
// The package deliberately decides only *whether* a point fires; each call
// site owns *what* firing means there (a typed error, a flipped bit, a
// panic), so the blast radius of every point is visible in the code it
// damages.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Point identifies one injection site. The set is fixed at compile time so
// call sites index an array rather than hashing a name.
type Point uint8

// The injection points, one per fault the degradation machinery must
// survive. Each constant documents the behavior its call site implements
// when the point fires.
const (
	// SnapioReadErr fails the heap snapshot load's input read
	// (snapio.ReadAll, hit once per fixed-size chunk of the file) with an
	// injected I/O error, surfacing as a wrapped read error.
	SnapioReadErr Point = iota
	// SnapioReadFlip flips one bit at the start of a chunk snapio.ReadAll
	// just read — the decoded data and the CRC computed over it both see the
	// flip while the recorded trailer does not, so the real
	// corruption-detection path (ErrChecksum, or ErrCorrupt if a structural
	// sanity check trips first) is exercised end to end.
	SnapioReadFlip
	// SnapioReadTruncate makes snapio.ReadAll report ErrTruncated at a
	// chunk, as if the file ended mid-structure.
	SnapioReadTruncate
	// SnapioWriteErr fails a snapshot write primitive with an injected I/O
	// error.
	SnapioWriteErr
	// StorageTablePanic panics inside storage.Store.Table — the CSR probe
	// layer has no error channel, so its only possible fault is a panic the
	// serving layer must isolate.
	StorageTablePanic
	// ExecEvalErr fails a lattice-node evaluation with ErrInjected (an
	// engine error, classified like a row-budget blow-up).
	ExecEvalErr
	// ExecEvalPanic panics inside a lattice-node evaluation, on the
	// goroutine running the query, exercising the serving layer's panic
	// isolation.
	ExecEvalPanic
	// AdmissionFull makes the server's admission gate report saturation
	// immediately, as if every worker slot stayed busy for the full wait.
	AdmissionFull
	// CacheMiss makes the server's result cache miss on lookup (the entry,
	// if any, is retained — stale-serving still finds it).
	CacheMiss
	// BrownoutForce makes the server's brownout detector report sustained
	// saturation, engaging the k′/max-evaluations clamp regardless of real
	// queue depth — the deterministic driver for brownout tests.
	BrownoutForce
	// SnapioMapErr fails a snapshot mmap open before the file is mapped —
	// the -snapshot-mmap path must fall back to the heap loader (or a graph
	// rebuild) instead of dying.
	SnapioMapErr
	// SnapioMadviseErr fails the madvise(WILLNEED) prefetch hint after a
	// successful map. The hint is advisory: the open must proceed, merely
	// forfeiting readahead.
	SnapioMadviseErr

	// NumPoints is the number of injection points; it must stay last.
	NumPoints
)

// pointNames maps points to the stable names the -fault flag spec, /statz,
// and log lines use.
var pointNames = [NumPoints]string{
	SnapioReadErr:      "snapio.read.err",
	SnapioReadFlip:     "snapio.read.flip",
	SnapioReadTruncate: "snapio.read.truncate",
	SnapioWriteErr:     "snapio.write.err",
	StorageTablePanic:  "storage.table.panic",
	ExecEvalErr:        "exec.eval.err",
	ExecEvalPanic:      "exec.eval.panic",
	AdmissionFull:      "server.admission.full",
	CacheMiss:          "server.cache.miss",
	BrownoutForce:      "server.brownout.force",
	SnapioMapErr:       "snapio.map.err",
	SnapioMadviseErr:   "snapio.map.advise",
}

// Name returns p's stable spec name.
func (p Point) Name() string {
	if p >= NumPoints {
		return fmt.Sprintf("fault.point(%d)", uint8(p))
	}
	return pointNames[p]
}

// ErrInjected is the sentinel every error-kind injection wraps; test with
// errors.Is to distinguish injected faults from organic ones.
var ErrInjected = errors.New("fault: injected")

// Rule says when an armed point fires. A rule fires on a hit when the hit
// is past After, under Limit, and either the count trigger (Every) or the
// seeded probabilistic trigger (Prob) selects it.
type Rule struct {
	// Prob fires each eligible hit independently with this probability,
	// derived from hashing the hit ordinal with Seed — deterministic per
	// (seed, ordinal), no global random state. 0 disables the trigger;
	// values >= 1 always fire.
	Prob float64
	// Every fires deterministically on each Every-th eligible hit
	// (1 = every hit). 0 disables the trigger.
	Every uint64
	// After skips the first After hits entirely — e.g. let a snapshot
	// header parse before damaging the body.
	After uint64
	// Limit caps total fires (0 = unlimited); after Limit fires the point
	// goes quiet, letting recovery be asserted in the same run.
	Limit uint64
	// Seed keys the probabilistic trigger's hash.
	Seed uint64
}

// Config arms a set of points, one rule each.
type Config map[Point]Rule

// pointState is one armed point's runtime state: the immutable rule plus
// its hit/fire counters.
type pointState struct {
	rule  Rule
	armed bool
	hits  atomic.Uint64
	fired atomic.Uint64
}

// registry is one immutable arming of the fault set (counters aside).
type registry struct {
	points [NumPoints]pointState
}

// active is the registry Fires consults; nil is the disabled fast path.
var active atomic.Pointer[registry]

// injectedTotal counts fires across the process lifetime, surviving
// Enable/Disable cycles, so a /statz scrape after recovery still shows the
// faults that were driven.
var injectedTotal atomic.Uint64

// Enabled reports whether any fault rules are armed.
func Enabled() bool { return active.Load() != nil }

// Enable arms cfg, replacing any previous arming (counters restart; the
// process-lifetime injected total persists). An empty cfg disables.
func Enable(cfg Config) {
	if len(cfg) == 0 {
		Disable()
		return
	}
	r := &registry{}
	for p, rule := range cfg {
		if p >= NumPoints {
			continue
		}
		r.points[p].rule = rule
		r.points[p].armed = true
	}
	active.Store(r)
}

// Disable disarms every point, restoring the zero-cost path.
func Disable() { active.Store(nil) }

// Fires reports whether p fires on this hit. The disabled path is one
// atomic load and a nil check.
func Fires(p Point) bool {
	r := active.Load()
	if r == nil {
		return false
	}
	return r.fires(p)
}

// Check returns ErrInjected (wrapped with the point name) when p fires,
// nil otherwise — the error-kind call-site helper.
func Check(p Point) error {
	if Fires(p) {
		return fmt.Errorf("%w at %s", ErrInjected, p.Name())
	}
	return nil
}

// PanicIf panics with a recognizable value when p fires — the panic-kind
// call-site helper. Keeping the panic here (rather than at the call site)
// lets //gqbe:hotpath functions stay allocation-free when disarmed.
func PanicIf(p Point) {
	if Fires(p) {
		panic("fault: injected panic at " + p.Name())
	}
}

func (r *registry) fires(p Point) bool {
	st := &r.points[p]
	if !st.armed {
		return false
	}
	n := st.hits.Add(1)
	rule := &st.rule
	if n <= rule.After {
		return false
	}
	eligible := n - rule.After
	fire := false
	if rule.Every > 0 && eligible%rule.Every == 0 {
		fire = true
	}
	if !fire && rule.Prob > 0 {
		if rule.Prob >= 1 {
			fire = true
		} else {
			// Hash the ordinal with the seed: the schedule is a pure
			// function of (seed, arrival order), never of global state.
			h := splitmix64(rule.Seed ^ (eligible * 0x9e3779b97f4a7c15))
			fire = float64(h>>11)/(1<<53) < rule.Prob
		}
	}
	if !fire {
		return false
	}
	f := st.fired.Add(1)
	if rule.Limit > 0 && f > rule.Limit {
		return false
	}
	injectedTotal.Add(1)
	return true
}

// splitmix64 is the SplitMix64 finalizer: a tiny, well-mixed, stateless
// hash — exactly what a seeded per-ordinal coin flip needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injected returns the process-lifetime count of fired injections (across
// all points and Enable cycles).
func Injected() uint64 { return injectedTotal.Load() }

// PointStat is one point's counters in a Stats snapshot.
type PointStat struct {
	Name  string `json:"name"`
	Hits  uint64 `json:"hits"`
	Fired uint64 `json:"fired"`
}

// Stats returns the armed points' hit/fire counters, sorted by name; nil
// when disabled.
func Stats() []PointStat {
	r := active.Load()
	if r == nil {
		return nil
	}
	var out []PointStat
	for p := Point(0); p < NumPoints; p++ {
		st := &r.points[p]
		if !st.armed {
			continue
		}
		out = append(out, PointStat{Name: p.Name(), Hits: st.hits.Load(), Fired: st.fired.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Parse decodes a -fault flag spec into a Config. The grammar is
//
//	spec  ::= arm (";" arm)*
//	arm   ::= point ":" opt ("," opt)*
//	opt   ::= "p=" float | "every=" uint | "after=" uint
//	        | "limit=" uint | "seed=" uint
//
// e.g. "exec.eval.panic:every=3,limit=2;snapio.read.flip:p=0.5,seed=7".
// A rule with neither p nor every set defaults to every=1 (always fire).
func Parse(spec string) (Config, error) {
	cfg := Config{}
	for _, arm := range strings.Split(spec, ";") {
		arm = strings.TrimSpace(arm)
		if arm == "" {
			continue
		}
		name, opts, ok := strings.Cut(arm, ":")
		if !ok {
			return nil, fmt.Errorf("fault: arm %q: want point:opts", arm)
		}
		p, err := pointByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		var rule Rule
		for _, opt := range strings.Split(opts, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("fault: arm %q: option %q: want key=value", arm, opt)
			}
			switch k {
			case "p":
				rule.Prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (rule.Prob < 0 || rule.Prob > 1) {
					err = fmt.Errorf("probability %v outside [0,1]", rule.Prob)
				}
			case "every":
				rule.Every, err = strconv.ParseUint(v, 10, 64)
			case "after":
				rule.After, err = strconv.ParseUint(v, 10, 64)
			case "limit":
				rule.Limit, err = strconv.ParseUint(v, 10, 64)
			case "seed":
				rule.Seed, err = strconv.ParseUint(v, 10, 64)
			default:
				err = errors.New("unknown option")
			}
			if err != nil {
				return nil, fmt.Errorf("fault: arm %q: option %q: %v", arm, opt, err)
			}
		}
		if rule.Prob == 0 && rule.Every == 0 {
			rule.Every = 1
		}
		if _, dup := cfg[p]; dup {
			return nil, fmt.Errorf("fault: point %s armed twice", p.Name())
		}
		cfg[p] = rule
	}
	if len(cfg) == 0 {
		return nil, errors.New("fault: empty spec")
	}
	return cfg, nil
}

// pointByName resolves a spec name, listing the valid names on failure so
// a typo in an operator flag is self-diagnosing.
func pointByName(name string) (Point, error) {
	for p := Point(0); p < NumPoints; p++ {
		if pointNames[p] == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown point %q (valid: %s)", name, strings.Join(pointNames[:], ", "))
}
