package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span that made the call (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the part of a span name before the first dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps every span in memory until the benchmark writes them out at
// exit. It is safe for concurrent use: campaign workers and the mining
// fan-out record spans from several goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span measured by the caller and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: t.op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// opSpans returns the spans recorded for one op.
func (t *tracer) opSpans(op int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scope is where the next span hangs: a tracer (nil when the op runs
// untraced) and the parent span's ID. Every method is a no-op on an
// untraced scope, so workload code times its layer calls unconditionally.
type scope struct {
	tr     *tracer
	parent int
}

// traced reports whether spans are being recorded.
func (c scope) traced() bool { return c.tr != nil }

// call runs fn inside a span named name and returns fn's error.
func (c scope) call(name string, fn func(scope) error) error {
	if c.tr == nil {
		return fn(c)
	}
	start := time.Now()
	c.tr.mu.Lock()
	id := len(c.tr.spans) + 1
	c.tr.spans = append(c.tr.spans, span{ID: id, Parent: c.parent, Op: c.tr.op, Name: name})
	c.tr.mu.Unlock()
	err := fn(scope{tr: c.tr, parent: id})
	end := time.Now()
	c.tr.mu.Lock()
	c.tr.spans[id-1].Start = start.Sub(c.tr.epoch).Nanoseconds()
	c.tr.spans[id-1].End = end.Sub(c.tr.epoch).Nanoseconds()
	c.tr.mu.Unlock()
	return err
}

// add records a span the caller timed itself (see tracer.add).
func (c scope) add(name string, start, end time.Time) {
	if c.tr != nil {
		c.tr.add(name, c.parent, start, end)
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other (the mining
// fan-out and campaign workers run concurrently), so the covered part is
// the length of their union, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelf sums self time per layer over one op's spans.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += time.Duration(self[s.ID])
	}
	return out
}

// nameTotal sums the durations of the spans with the given name.
func nameTotal(spans []span, name string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}
