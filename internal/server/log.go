package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gqbe"
	"gqbe/internal/obs"
)

// disposition names how a request was ultimately satisfied (or not), for
// logs and the explain response: "computed" (a real engine search),
// "cache_hit", "coalesced", the degraded modes "stale" (retained cache entry
// served after a live-path failure) and "browned_out" (search ran under the
// brownout evaluation cap), or the failure classes "rejected"
// (admission shed), "timeout", "canceled", and "error".
func disposition(flags answerFlags, err error) string {
	switch {
	case err == nil && flags.stale:
		return "stale"
	case err == nil && flags.brownedOut:
		// Brownout can coincide with coalescing (a follower sharing a
		// capped leader's answer); the degradation is the load-bearing
		// fact for logs, so it wins.
		return "browned_out"
	case err == nil && flags.cached:
		return "cache_hit"
	case err == nil && flags.coalesced:
		return "coalesced"
	case err == nil:
		return "computed"
	case errors.Is(err, errSaturated):
		return "rejected"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// logQuery emits the per-request structured log record. A request at or over
// the SlowQuery threshold is counted and logged at Warn with its full span
// breakdown; below it, Trace mode logs the same record at Debug; otherwise
// nothing is logged (the common production path costs one comparison).
// root is the finished span tree (nil when the request was untraced).
func (s *Server) logQuery(reqID, endpoint string, tuples [][]string, total time.Duration, res *gqbe.Result, flags answerFlags, err error, root *obs.Span) {
	slow := s.cfg.SlowQuery > 0 && total >= s.cfg.SlowQuery
	if slow {
		s.met.slowQueries.Add(1)
	}
	if !slow && !s.cfg.Trace {
		return
	}
	attrs := []any{
		"request_id", reqID,
		"endpoint", endpoint,
		"tuples", formatTuples(tuples),
		"total_ms", float64(total) / float64(time.Millisecond),
		"disposition", disposition(flags, err),
	}
	if res != nil {
		attrs = append(attrs,
			"answers", len(res.Answers),
			"nodes_evaluated", res.Stats.NodesEvaluated,
			"stopped", res.Stats.Stopped,
		)
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	if root != nil {
		attrs = append(attrs, "spans", formatSpan(root))
	}
	if slow {
		s.cfg.Logger.Warn("slow query", attrs...)
		return
	}
	s.cfg.Logger.Debug("query", attrs...)
}

// formatTuples renders the query tuples compactly for log records:
// [a,b]+[c,d] for a two-tuple query.
func formatTuples(tuples [][]string) string {
	var b strings.Builder
	for i, t := range tuples {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteByte('[')
		b.WriteString(strings.Join(t, ","))
		b.WriteByte(']')
	}
	return b.String()
}

// formatSpan renders a span tree as one line for log records, e.g.
// query=12.40ms[admission.wait=0.01ms engine=12.31ms[discovery=...]].
// Attributes are omitted — the explain endpoint carries those; the log line
// answers "which stage ate the time".
func formatSpan(sp *obs.Span) string {
	var b strings.Builder
	writeSpan(&b, sp)
	return b.String()
}

func writeSpan(b *strings.Builder, sp *obs.Span) {
	fmt.Fprintf(b, "%s=%.2fms", sp.Name, float64(sp.Duration)/float64(time.Millisecond))
	if len(sp.Children) == 0 {
		return
	}
	b.WriteByte('[')
	for i, c := range sp.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		writeSpan(b, c)
	}
	b.WriteByte(']')
}

// queueWaitOf digs the admission queue wait out of a finished span tree (the
// first "admission.wait" span, depth-first). Zero when the request never
// reached admission or was untraced.
func queueWaitOf(sp *obs.Span) time.Duration {
	if sp == nil {
		return 0
	}
	if sp.Name == "admission.wait" {
		return sp.Duration
	}
	for _, c := range sp.Children {
		if d := queueWaitOf(c); d > 0 {
			return d
		}
	}
	return 0
}
