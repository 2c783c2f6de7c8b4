package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// repository. Spans are recorded only from the goroutine that drives the
// workload, so a call that fans out internally (a parallel compile, a
// k-NN build) is one span.
type span struct {
	Name string `json:"name"`
	// Trace groups the spans of one operation: a pipeline job, a stream
	// fold, or one replayed request.
	Trace int `json:"trace"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Items counts the work units the call handled (sentences, requests).
	Items int `json:"items"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays only a nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of unfinished spans; the top is the next parent
	trace int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace starts a new trace id for the spans that follow.
func (t *tracer) newTrace() {
	if t != nil {
		t.trace++
	}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, Parent: parent, Start: int64(time.Since(t.epoch))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id, items int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.Items = items
}

// do runs fn inside a span.
func (t *tracer) do(name string, items int, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id, items)
}

// layerTotals is the self time and item count of every span name.
type layerTotals map[string]*layerTotal

type layerTotal struct {
	Self  time.Duration
	Items int
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover, over the spans whose trace keep accepts.
func (t *tracer) selfTimes(keep func(trace int) bool) layerTotals {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := layerTotals{}
	for i, s := range t.spans {
		if !keep(s.Trace) {
			continue
		}
		self := s.dur() - covered(t.spans, children[i])
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Self += self
		lt.Items += s.Items
	}
	return out
}

// covered returns the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	iv := make([][2]int64, len(ids))
	for i, id := range ids {
		iv[i] = [2]int64{spans[id].Start, spans[id].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, hi int64
	for _, x := range iv {
		if x[0] > hi {
			hi = x[0]
		}
		if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return time.Duration(total)
}

func (lt layerTotals) self(name string) time.Duration {
	if x := lt[name]; x != nil {
		return x.Self
	}
	return 0
}

// usPer is the self time of name in microseconds per item.
func (lt layerTotals) usPer(name string) float64 {
	x := lt[name]
	if x == nil || x.Items == 0 {
		return 0
	}
	return float64(x.Self.Nanoseconds()) / 1e3 / float64(x.Items)
}

// spanCost measures what recording one span costs on this machine; the
// traced run multiplies it by the spans of an operation to report the
// tracing overhead where the traced and untraced operation are the same
// call.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate"), 1)
	}
	return time.Since(start) / n
}

// writeSpans writes every span as one JSON array.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
