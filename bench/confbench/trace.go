package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one (0 for a root).
// Times are microseconds since the tracer was created.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) durUS() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, which is how the
// untraced run pays nothing for the instrumentation.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 when disabled).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartUS: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func()) {
	id := t.start(name, parent, op)
	fn()
	t.end(id)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations (µs) of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.durUS())
		}
	}
	return out
}

// selfTimes maps span ID to self time in µs: the span's duration minus
// the part of it that its direct children cover. Overlapping children
// are counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, upTo := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, upTo), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.durUS() - covered
	}
	return self
}

// selfByName sums self time (µs) per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
