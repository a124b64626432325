package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// This file implements the per-request side of the observability layer: a
// hierarchical trace tree. Where the registry (registry.go) aggregates
// across all requests, a Trace explains one request — which pipeline
// stages ran, nested how, and for how long. The trace records only where
// the time went; what the run did (TODAM reduction, SPQs priced, cache
// hits, model convergence) is the typed result the traced code returns.
//
// The disabled path (no trace on the context) must cost nothing: no
// allocation, one time.Now pair. Span is therefore a value type and every
// method nil-checks its trace pointer first.

// Trace records the spans of one request. It has one owner: the goroutine
// that runs the request starts and ends every span and then takes the
// Summary. A trace is not safe for concurrent use, and it needs none — a
// served run records nine spans (job, queue_wait, query, the five engine
// stages), all on its worker goroutine; fan-outs below a stage start none.
type Trace struct {
	id    string
	spans []span
}

// span is one recorded interval; parent indexes the trace's spans, -1 for
// roots. dur is 0 while the span is open.
type span struct {
	name   string
	parent int32
	start  time.Time
	dur    time.Duration
}

// traceSeq disambiguates trace IDs within a process; traceEpoch
// disambiguates across processes.
var (
	traceSeq   atomic.Uint64
	traceEpoch = uint64(time.Now().UnixNano())
)

// NewTrace returns an empty trace with a process-unique ID.
func NewTrace() *Trace {
	return &Trace{
		id:    fmt.Sprintf("%08x-%06x", uint32(traceEpoch), traceSeq.Add(1)&0xffffff),
		spans: make([]span, 0, 16),
	}
}

// startSpan appends an open span and returns its index.
func (t *Trace) startSpan(name string, parent int32, start time.Time) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start})
	return int32(len(t.spans) - 1)
}

// end closes span idx after d; a finished span lasts at least 1 ns, so a
// zero duration always means open.
func (t *Trace) end(idx int32, d time.Duration) {
	t.spans[idx].dur = max(d, 1)
}

// Stage is one timed pipeline stage inside a request, the flat view of a
// span shaped for JSON status responses (e.g. a /v1/jobs poll showing
// where a query spent its time).
type Stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// SpanNode is one node of the JSON span tree: a named, timed span with its
// children in start order.
type SpanNode struct {
	Name string `json:"name"`
	// StartMS is the span's start offset from the trace's earliest span,
	// in milliseconds.
	StartMS  float64     `json:"start_ms"`
	Seconds  float64     `json:"seconds"`
	Children []*SpanNode `json:"children,omitempty"`
}

// Walk visits n and all its descendants depth-first.
func (n *SpanNode) Walk(fn func(*SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// TraceSummary is the immutable, JSON-ready form of a completed trace: the
// span tree plus trace-level bounds. It is what job snapshots, the
// /v1/jobs/{id}/trace endpoint, ?explain=1 reports and captures carry.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	// Seconds spans the earliest span start to the latest span end.
	Seconds float64     `json:"seconds"`
	Spans   []*SpanNode `json:"spans"`
}

// Stages returns the tree's leaves depth-first: the intervals that tile
// the run, in execution order. For a served run that is queue_wait and the
// engine's five stages; the enclosing job and query spans are not stages.
// Every stage list — job polls, explain, the cost bill, the slow-query
// log — is this one.
func (s *TraceSummary) Stages() []Stage {
	if s == nil {
		return nil
	}
	var out []Stage
	for _, root := range s.Spans {
		root.Walk(func(n *SpanNode) {
			if len(n.Children) == 0 {
				out = append(out, Stage{Name: n.Name, Seconds: n.Seconds})
			}
		})
	}
	return out
}

// Summary snapshots the trace into an immutable span tree. Only finished
// spans are included; a finished span whose ancestors are still open — a
// panicking run leaves them so — is attached to its nearest finished
// ancestor (or promoted to a root). Call it from the trace's owner.
func (t *Trace) Summary() *TraceSummary {
	if t == nil {
		return nil
	}
	nodes := make([]*SpanNode, len(t.spans))
	var minStart, maxEnd time.Time
	for i, s := range t.spans {
		if s.dur == 0 {
			continue
		}
		nodes[i] = &SpanNode{Name: s.name, Seconds: s.dur.Seconds()}
		if minStart.IsZero() || s.start.Before(minStart) {
			minStart = s.start
		}
		if end := s.start.Add(s.dur); end.After(maxEnd) {
			maxEnd = end
		}
	}
	sum := &TraceSummary{TraceID: t.id, Start: minStart}
	if !minStart.IsZero() {
		sum.Seconds = maxEnd.Sub(minStart).Seconds()
	}
	for i, node := range nodes {
		if node == nil {
			continue
		}
		node.StartMS = float64(t.spans[i].start.Sub(minStart).Nanoseconds()) / 1e6
		// Parents always precede their children, so their nodes exist.
		parent := t.spans[i].parent
		for parent >= 0 && nodes[parent] == nil {
			parent = t.spans[parent].parent
		}
		if parent >= 0 {
			nodes[parent].Children = append(nodes[parent].Children, node)
		} else {
			sum.Spans = append(sum.Spans, node)
		}
	}
	return sum
}
