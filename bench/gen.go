//go:build linux

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// planned is one request of a phase, prepared before the phase starts so the
// generator does nothing but send while the clock runs.
type planned struct {
	op   op
	body []byte // the framed HTTP/1.1 request
}

// record is what the generator keeps of one request.
type record struct {
	idx    int
	status int // 0 on a transport error
	// lat is the client-observed latency: in the open phase from the instant
	// the request was due, so a stall is charged to every request it delays.
	lat time.Duration
	// late is how far past its due instant an idle generator sent the
	// request: oversleep, not backlog. Zero in the closed loop.
	late time.Duration
	hash uint64 // of the response body
	// sent and done bracket the exchange itself; the traced run turns them
	// into the client-side span.
	sent, done time.Time
}

// generator sends planned requests from one process over keep-alive
// connections, one goroutine per connection and no more: the workload's
// OpenConns in the open phase, one per CPU in the closed loops.
// Each goroutine owns its connection and speaks HTTP/1.1 on it directly:
// net/http's Transport adds a reader and a writer goroutine per connection,
// and their hand-offs cost the generator as much CPU as a cache hit costs
// the server.
type generator struct {
	addr  string
	conns []*conn
	// stampOps makes plan give request i the header X-Request-ID: op-<i>,
	// which gqbed adopts; the traced run's handler wrapper reads it to tie
	// its span to the client's.
	stampOps bool

	mu     sync.Mutex
	bodies map[uint64][]byte // first response body seen per hash
}

// conn is one worker's keep-alive connection.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func newGenerator(addr string, conns int) *generator {
	return &generator{addr: addr, conns: make([]*conn, conns), bodies: map[uint64][]byte{}}
}

func (g *generator) close() {
	for _, c := range g.conns {
		if c != nil {
			c.c.Close()
		}
	}
}

// plan prepares requests [from, from+n) of the stream, framing included.
func (g *generator) plan(s *stream, from, n int) []planned {
	frames := map[string]planned{} // the hot stream repeats a hundred keys
	out := make([]planned, n)
	for i := range out {
		o := s.at(from + i)
		if g.stampOps {
			out[i] = g.frame(o, i)
			continue
		}
		p, ok := frames[opKey(o)]
		if !ok {
			p = g.frame(o, -1)
			frames[opKey(o)] = p
		}
		out[i] = p
	}
	return out
}

// frame renders the op as an HTTP/1.1 request; id >= 0 stamps it.
func (g *generator) frame(o op, id int) planned {
	body := o.body()
	stamp := ""
	if id >= 0 {
		stamp = fmt.Sprintf("X-Request-ID: op-%d\r\n", id)
	}
	head := fmt.Sprintf("POST /v1/query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n%sContent-Length: %d\r\n\r\n",
		g.addr, stamp, len(body))
	return planned{op: o, body: append([]byte(head), body...)}
}

// send issues one request on worker w's connection and reads the whole
// response; status 0 means the exchange failed. A dead connection is
// redialed once.
func (g *generator) send(w int, p planned, buf *bytes.Buffer) (status int, hash uint64) {
	for attempt := 0; attempt < 2; attempt++ {
		if g.conns[w] == nil {
			c, err := net.Dial("tcp", g.addr)
			if err != nil {
				return 0, 0
			}
			g.conns[w] = &conn{c: c, br: bufio.NewReader(c)}
		}
		cn := g.conns[w]
		resp, err := cn.roundTrip(p.body, buf)
		if err != nil {
			cn.c.Close()
			g.conns[w] = nil
			continue
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		hash = h.Sum64()
		g.mu.Lock()
		if _, ok := g.bodies[hash]; !ok {
			g.bodies[hash] = append([]byte(nil), buf.Bytes()...)
		}
		g.mu.Unlock()
		return resp, hash
	}
	return 0, 0
}

func (cn *conn) roundTrip(req []byte, buf *bytes.Buffer) (int, error) {
	if _, err := cn.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. time.Sleep
// will not do: the Go runtime parks idle timers in epoll_wait, whose timeout
// has millisecond granularity, so short sleeps overshoot by about a
// millisecond — more than a cache hit takes.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption signals) just re-arms the loop
	}
}

// phaseStats describes how the generator itself behaved during a phase.
type phaseStats struct {
	elapsed     time.Duration
	inflightMax int
	cpu         time.Duration // generator process CPU over the phase
}

// open sends plan[i] at start+due[i] whatever the responses do: an open loop.
// Each worker takes the next unsent request, sleeps until it is due and
// sends it; when every connection is busy the backlog waits, and that wait
// is charged to the request's latency because latency runs from the due
// instant.
func (g *generator) open(plan []planned, due []time.Duration) ([]record, phaseStats) {
	recs := make([]record, len(plan))
	var next, inflight, inflightMax atomic.Int64
	var wg sync.WaitGroup
	cpu0, start := selfCPU(), time.Now()
	for w := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				dueAt := start.Add(due[i])
				sleepUntil(dueAt)
				sentAt := time.Now()
				// Lateness counts from when this worker could first have
				// sent: the due instant, or the end of its previous request.
				ready := dueAt
				if free.After(ready) {
					ready = free
				}
				n := inflight.Add(1)
				for m := inflightMax.Load(); n > m && !inflightMax.CompareAndSwap(m, n); m = inflightMax.Load() {
				}
				status, hash := g.send(w, plan[i], &buf)
				inflight.Add(-1)
				free = time.Now()
				recs[i] = record{idx: i, status: status, hash: hash, lat: free.Sub(dueAt), late: sentAt.Sub(ready), sent: sentAt, done: free}
			}
		}()
	}
	wg.Wait()
	return recs, phaseStats{elapsed: time.Since(start), inflightMax: int(inflightMax.Load()), cpu: selfCPU() - cpu0}
}

// closed runs clients (at most one per connection), each sending its next
// request as soon as the previous answer has arrived: a closed loop. It
// stops after dur, rounded up to a whole number of cycles of the stream (so
// every run sends each tuple equally often), or when plan runs out.
func (g *generator) closed(plan []planned, dur time.Duration, cycle, clients int) ([]record, phaseStats) {
	recs := make([]record, len(plan))
	var next atomic.Int64
	var limit atomic.Int64
	limit.Store(int64(len(plan)))
	var wg sync.WaitGroup
	cpu0, start := selfCPU(), time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= limit.Load() {
					return
				}
				t0 := time.Now()
				status, hash := g.send(w, plan[i], &buf)
				done := time.Now()
				recs[i] = record{idx: int(i), status: status, hash: hash, lat: done.Sub(t0), sent: t0, done: done}
				if time.Since(start) >= dur {
					stop := i + 1
					if cycle > 0 {
						stop = (i/int64(cycle) + 1) * int64(cycle)
					}
					if stop < limit.Load() {
						limit.CompareAndSwap(int64(len(plan)), stop)
					}
				}
			}
		}()
	}
	wg.Wait()
	n := int(limit.Load())
	if sent := int(next.Load()); sent < n {
		n = sent
	}
	return recs[:n], phaseStats{elapsed: time.Since(start), inflightMax: clients, cpu: selfCPU() - cpu0}
}
