package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps how many spans one run keeps in memory; later spans are
// counted as dropped so a long traced run cannot grow without bound.
const maxSpans = 200000

// Span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Parent is 0 for a root span; Req groups the spans of one
// request (one query, one download, one model evaluation).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer is an in-memory span recorder. A nil *Tracer records nothing, so
// untraced runs pay one nil check per span.
type Tracer struct {
	t0      time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTracer starts a recorder whose clock begins now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// SpanRef is an open span; pass it to End.
type SpanRef struct {
	id, parent, req uint64
	name            string
	start           int64
}

// ID returns the span's id, for use as a child's parent.
func (s SpanRef) ID() uint64 { return s.id }

// Begin opens a span under parent (0 for a root) for request req.
func (t *Tracer) Begin(name string, parent, req uint64) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{id: t.next.Add(1), parent: parent, req: req, name: name,
		start: time.Since(t.t0).Nanoseconds()}
}

// End closes a span opened by Begin.
func (t *Tracer) End(s SpanRef) {
	if t == nil || s.id == 0 {
		return
	}
	t.add(Span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: s.start, End: time.Since(t.t0).Nanoseconds()})
}

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Do runs f inside a span.
func (t *Tracer) Do(name string, parent, req uint64, f func()) {
	s := t.Begin(name, parent, req)
	f()
	t.End(s)
}

// SpanTotals aggregates the spans of one name.
type SpanTotals struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// Totals returns per-name span counts, total time and self time, sorted by
// self time, largest first. A span's self time is its duration minus the
// part of its interval that its children cover.
func (t *Tracer) Totals() []SpanTotals {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return spanTotals(spans)
}

func spanTotals(spans []Span) []SpanTotals {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*SpanTotals)
	for _, s := range spans {
		agg := byName[s.Name]
		if agg == nil {
			agg = &SpanTotals{Name: s.Name}
			byName[s.Name] = agg
		}
		dur := s.End - s.Start
		agg.Count++
		agg.Total += float64(dur) / 1e6
		agg.Self += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]SpanTotals, 0, len(byName))
	for _, agg := range byName {
		out = append(out, *agg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		sum += v.b - v.a
		end = v.b
	}
	return sum
}

// WriteFile writes every recorded span as one JSON object per line, then a
// closing line with the per-name totals and the dropped-span count.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	summary := struct {
		Dropped int          `json:"dropped"`
		Totals  []SpanTotals `json:"totals"`
	}{dropped, spanTotals(spans)}
	if err := enc.Encode(summary); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// Record adds a span whose interval was measured by the caller.
func (t *Tracer) Record(name string, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(Span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}
