package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/stats"
)

// The client hello of the super-peer wire protocol (internal/p2p).
const (
	helloClient = "SPNET/1.0 CLIENT"
	helloOK     = "SPNET/1.0 OK"
)

// resultKey identifies one result a query may legitimately receive: the
// responder's port (a corpus client's connection, or a serving super-peer's
// listener) and the file index it advertised. Every file is reachable
// through exactly one responder port, so a second arrival of a key is a
// duplicate and a key outside the expected set is foreign.
type resultKey struct {
	port uint16
	file uint32
}

// query is one tracked client query with its ground truth.
type query struct {
	seq   uint64
	phase int
	id    gnutella.GUID
	text  string
	want  map[resultKey]string // expected results and their titles
	due   time.Time            // when the schedule said to send it
	first time.Time            // first correct result
	done  time.Time            // received count reached len(want)
	got   int
	seen  map[resultKey]bool
	busy  bool
	wrong []string // why a result was rejected
	over  bool     // complete closed
	// retired is set once the query's phase is summarized and its
	// per-result state dropped.
	retired bool
	// complete is closed once the query can receive nothing more that would
	// change its outcome: all results arrived, or it was refused or wrong.
	complete chan struct{}
	span     SpanRef
	parent   uint64 // span the query's own span nests under, 0 for none
}

func (q *query) finish() {
	if !q.over {
		q.over = true
		close(q.complete)
	}
}

func (q *query) reject(reason string) {
	q.wrong = append(q.wrong, reason)
	q.finish()
}

// observeHit checks one QueryHit against the query's ground truth. Results
// that are foreign, duplicated, wrongly titled or beyond the expected count
// are rejected.
func (q *query) observeHit(h *gnutella.QueryHit, at time.Time) {
	for _, r := range h.Results {
		k := resultKey{file: r.FileIndex}
		if int(r.AddrRef) < len(h.Responders) {
			k.port = h.Responders[r.AddrRef].Port
		}
		title, ok := q.want[k]
		switch {
		case !ok:
			q.reject("foreign result")
		case q.seen[k]:
			q.reject("duplicate result")
		case title != r.Title:
			q.reject("wrong title")
		case q.got >= len(q.want):
			q.reject("beyond expected count")
		default:
			q.seen[k] = true
			q.got++
			if q.first.IsZero() {
				q.first = at
			}
			if q.got == len(q.want) {
				q.done = at
				q.finish()
			}
		}
	}
}

// failed reports whether the query failed: refused with Busy, given a wrong
// result, or still short of its expected count timeout after it was due.
func (q *query) failed(timeout time.Duration) bool {
	if q.busy || len(q.wrong) > 0 {
		return true
	}
	if len(q.want) == 0 {
		return false
	}
	return q.done.IsZero() || q.done.Sub(q.due) > timeout
}

// tracker owns every query a run sends and matches arriving frames to them.
type tracker struct {
	tr  atomic.Pointer[Tracer] // nil while untraced
	tag uint64                 // high half of every query GUID, fixed by the seed

	mu    sync.Mutex
	seq   uint64
	byID  map[gnutella.GUID]*query
	all   []*query
	stray int // hits or Busy frames for no query this run sent
	late  int // frames for queries whose phase was already summarized
	sent  int
	// hits and queries keep the first frames of each kind for the codec
	// replays of the traced run.
	hits    []*gnutella.QueryHit
	queries []*gnutella.Query
}

const captureFrames = 512

func newTracker(seed uint64) *tracker {
	return &tracker{tag: stats.NewRNG(seed).Split(saltGUID).Uint64(),
		byID: make(map[gnutella.GUID]*query)}
}

func (t *tracker) tracer() *Tracer { return t.tr.Load() }

// add registers a query due at due. Its GUID is derived from the seed and
// its sequence number, so a seed fixes every frame the generator sends.
func (t *tracker) add(phase int, text string, want map[resultKey]string, due time.Time) *query {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	q := &query{seq: t.seq, phase: phase, text: text, want: want, due: due,
		seen: make(map[resultKey]bool, len(want)), complete: make(chan struct{})}
	binary.LittleEndian.PutUint64(q.id[:8], t.tag)
	binary.LittleEndian.PutUint64(q.id[8:], q.seq)
	if len(want) == 0 {
		q.finish() // nothing to wait for; stray results still count against it
	}
	t.byID[q.id] = q
	t.all = append(t.all, q)
	return q
}

// onMessage routes one received frame to its query and returns the
// query's span and sequence number, the parent of the frame's read span.
func (t *tracker) onMessage(m gnutella.Message, at time.Time) (parent, req uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch m := m.(type) {
	case *gnutella.QueryHit:
		q := t.byID[m.ID]
		if q == nil {
			t.stray++
			return 0, 0
		}
		if q.retired {
			t.late++
			return 0, 0
		}
		parent, req = q.span.ID(), q.seq
		if len(t.hits) < captureFrames {
			t.hits = append(t.hits, m)
		}
		s := t.tracer().Begin("loadgen.check", q.span.ID(), q.seq)
		q.observeHit(m, at)
		t.tracer().End(s)
		if q.over {
			t.tracer().End(q.span)
			q.span = SpanRef{}
		}
	case *gnutella.Busy:
		q := t.byID[m.ID]
		if q == nil {
			t.stray++
			return 0, 0
		}
		parent, req = q.span.ID(), q.seq
		q.busy = true
		q.finish()
		t.tracer().End(q.span)
		q.span = SpanRef{}
	}
	return parent, req
}

func (t *tracker) sentCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent
}

func (t *tracker) lateCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.late
}

func (t *tracker) strayCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stray
}

// captured returns the frames kept for the codec replays.
func (t *tracker) captured() ([]*gnutella.Query, []*gnutella.QueryHit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*gnutella.Query(nil), t.queries...), append([]*gnutella.QueryHit(nil), t.hits...)
}

// results returns the correct results q has received.
func (t *tracker) results(q *query) []resultKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]resultKey, 0, len(q.seen))
	for k := range q.seen {
		out = append(out, k)
	}
	return out
}

// wireConn is one load-generator connection speaking the client protocol
// directly through gnutella.WriteMessage/ReadMessage, so every QueryHit and
// Busy is stamped as it arrives. p2p.Client.Search cannot do this: it blocks
// for a whole collection window.
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	t    *tracker
	done chan struct{}
}

// dialWire opens a client connection, joins with an empty collection (the
// protocol requires a Join before queries) and starts the reader.
func dialWire(addr string, guid gnutella.GUID, t *tracker) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(c, "%s\n", helloClient); err != nil {
		c.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	line, err := br.ReadString('\n')
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("loadgen handshake with %s: %w", addr, err)
	}
	if strings.TrimSpace(line) != helloOK {
		c.Close()
		return nil, fmt.Errorf("loadgen: %s refused: %s", addr, strings.TrimSpace(line))
	}
	if err := gnutella.WriteMessage(c, &gnutella.Join{ID: guid}); err != nil {
		c.Close()
		return nil, err
	}
	w := &wireConn{c: c, br: br, t: t, done: make(chan struct{})}
	go w.readLoop()
	return w, nil
}

func (w *wireConn) readLoop() {
	defer close(w.done)
	for {
		if _, err := w.br.Peek(1); err != nil {
			return
		}
		start := time.Now()
		m, err := gnutella.ReadMessage(w.br)
		if err != nil {
			return
		}
		at := time.Now()
		parent, req := w.t.onMessage(m, at)
		w.t.tracer().Record("gnutella.read", parent, req, start, at)
	}
}

// send writes q's Query frame and stamps the query's trace span.
func (w *wireConn) send(q *query) error {
	msg := &gnutella.Query{ID: q.id, TTL: 1, Text: q.text}
	w.t.mu.Lock()
	q.span = w.t.tracer().Begin("loadgen.query", q.parent, q.seq)
	if q.over {
		w.t.tracer().End(q.span)
		q.span = SpanRef{}
	}
	span := q.span
	w.t.sent++
	if len(w.t.queries) < captureFrames {
		w.t.queries = append(w.t.queries, msg)
	}
	w.t.mu.Unlock()
	s := w.t.tracer().Begin("gnutella.write", span.ID(), q.seq)
	w.wmu.Lock()
	err := gnutella.WriteMessage(w.c, msg)
	w.wmu.Unlock()
	w.t.tracer().End(s)
	return err
}

// Close closes the connection and waits for its reader to exit.
func (w *wireConn) Close() error {
	err := w.c.Close()
	<-w.done
	return err
}

// openLoop sends Poisson arrivals at rate queries/s for dur, round-robin
// over conns, regardless of how fast answers come back. It returns how late
// the generator ran behind each query's due time, in milliseconds.
func openLoop(conns []*wireConn, t *tracker, src *querySource, phase int, rate float64, dur time.Duration, rng *stats.RNG) ([]float64, error) {
	start := time.Now()
	end := start.Add(dur)
	due := start
	var late []float64
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			return late, nil
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		text, want := src.next()
		q := t.add(phase, text, want, due)
		if err := conns[i%len(conns)].send(q); err != nil {
			return late, err
		}
	}
}

// closedLoop keeps window queries outstanding on each connection for dur:
// a slot sends its next query only when the previous one completes or times
// out, so a slower system receives less load.
func closedLoop(conns []*wireConn, t *tracker, src *querySource, phase, window int, dur, timeout time.Duration) error {
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	errs := make(chan error, len(conns)*window)
	for _, c := range conns {
		for s := 0; s < window; s++ {
			wg.Add(1)
			go func(c *wireConn) {
				defer wg.Done()
				for time.Now().Before(end) {
					text, want := src.next()
					q := t.add(phase, text, want, time.Now())
					if err := c.send(q); err != nil {
						errs <- err
						return
					}
					select {
					case <-q.complete:
					case <-time.After(timeout):
					}
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// drain waits until every query of the phase has completed or passed its
// deadline, so late frames are checked before the phase is summarized.
func (t *tracker) drain(phase int, timeout time.Duration) {
	t.mu.Lock()
	var pending []*query
	for _, q := range t.all {
		if q.phase == phase && !q.over {
			pending = append(pending, q)
		}
	}
	t.mu.Unlock()
	for _, q := range pending {
		if d := time.Until(q.due.Add(timeout)); d > 0 {
			select {
			case <-q.complete:
			case <-time.After(d):
			}
		}
	}
}

// sample is one query's outcome for the latency and rate statistics.
type sample struct {
	due, done  time.Time
	ttfh, ttlh float64 // ms from due time; +Inf for a failed query
}

// phaseSummary is one phase's outcome.
type phaseSummary struct {
	attempted, failed int
	wrong             int // queries given a foreign, duplicate or wrong result
	busy              int // queries refused with Busy
	// samples cover queries with at least one expected result, and refused
	// queries. A failed query counts as missing every latency limit, so its
	// latencies are +Inf.
	samples    []sample
	start, end time.Time
	cpu        float64 // process CPU seconds the phase used
}

// summarize tallies the phase's queries, then drops their per-result state:
// every query of the phase has completed or timed out, and a frame that
// still arrives for one is counted as late.
func (t *tracker) summarize(phase int, timeout time.Duration, start, end time.Time) phaseSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := phaseSummary{start: start, end: end}
	for _, q := range t.all {
		if q.phase != phase {
			continue
		}
		s.attempted++
		if q.busy {
			s.busy++
		}
		if len(q.wrong) > 0 {
			s.wrong++
		}
		switch {
		case q.failed(timeout):
			s.failed++
			if len(q.want) > 0 || q.busy {
				s.samples = append(s.samples, sample{due: q.due, ttfh: inf, ttlh: inf})
			}
		case len(q.want) > 0:
			s.samples = append(s.samples, sample{due: q.due, done: q.done,
				ttfh: ms(q.first.Sub(q.due)), ttlh: ms(q.done.Sub(q.due))})
		}
		q.want, q.seen, q.retired = nil, nil, true
	}
	return s
}

// latencies splits the phase into consecutive windows of length win,
// places each sample in the window holding its due time, and returns each
// window's q-quantile of time to first or last hit. A median over windows
// keeps one stall, such as a garbage collection or a busy neighbour on the
// host, from moving a run's figure.
func (s phaseSummary) latencies(win time.Duration, q float64, last bool) []float64 {
	n := max(1, int(s.end.Sub(s.start)/win))
	buckets := make([][]float64, n)
	for _, x := range s.samples {
		if x.due.Before(s.start) || !x.due.Before(s.end) {
			continue
		}
		k := min(n-1, int(x.due.Sub(s.start)/win))
		v := x.ttfh
		if last {
			v = x.ttlh
		}
		buckets[k] = append(buckets[k], v)
	}
	var vals []float64
	for _, b := range buckets {
		if len(b) > 0 {
			vals = append(vals, quantile(b, q))
		}
	}
	return vals
}

// medianLatency is the median over every window of every phase of the
// windows' q-quantile of time to first or last hit.
func medianLatency(phases []phaseSummary, win time.Duration, q float64, last bool) float64 {
	var vals []float64
	for _, p := range phases {
		vals = append(vals, p.latencies(win, q, last)...)
	}
	return median(vals)
}

// total merges phases' counts and samples.
func total(phases []phaseSummary) phaseSummary {
	var t phaseSummary
	for _, p := range phases {
		t.attempted += p.attempted
		t.failed += p.failed
		t.wrong += p.wrong
		t.busy += p.busy
		t.samples = append(t.samples, p.samples...)
	}
	return t
}

// rate is correct completions per wall second over the phases, each
// counted up to its own end.
func rate(phases []phaseSummary) float64 {
	n, secs := 0, 0.0
	for _, p := range phases {
		n += p.completed()
		secs += p.end.Sub(p.start).Seconds()
	}
	return float64(n) / secs
}

// cpuPerQuery is the process CPU milliseconds the phases used per query
// attempted.
func cpuPerQuery(phases []phaseSummary) float64 {
	n, cpu := 0, 0.0
	for _, p := range phases {
		n += p.attempted
		cpu += p.cpu
	}
	return cpu * 1e3 / float64(max(n, 1))
}

// perCPUSecond is correct completions per process CPU second over the
// phases, counting every completion the phases' CPU paid for.
func perCPUSecond(phases []phaseSummary) float64 {
	n, cpu := 0, 0.0
	for _, p := range phases {
		for _, x := range p.samples {
			if !x.done.IsZero() {
				n++
			}
		}
		cpu += p.cpu
	}
	return float64(n) / cpu
}

// completed counts correct completions no later than the phase end.
func (s phaseSummary) completed() int {
	n := 0
	for _, x := range s.samples {
		if !x.done.IsZero() && !x.done.After(s.end) {
			n++
		}
	}
	return n
}

// ttlh returns every sample's time to last hit.
func (s phaseSummary) ttlh() []float64 {
	xs := make([]float64, len(s.samples))
	for i, x := range s.samples {
		xs[i] = x.ttlh
	}
	return xs
}

// ttfh returns every sample's time to first hit.
func (s phaseSummary) ttfh() []float64 {
	xs := make([]float64, len(s.samples))
	for i, x := range s.samples {
		xs[i] = x.ttfh
	}
	return xs
}
