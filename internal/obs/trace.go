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
// Design constraints, in order:
//
//  1. The disabled path (no trace on the context) must cost nothing: no
//     allocation, no atomics, one time.Now pair. Span is therefore a value
//     type and every method nil-checks its trace pointer first.
//  2. The enabled hot path must be lock-free. Span slots live in a
//     fixed-capacity array allocated once per trace; starting a span is
//     one atomic increment claiming a slot. A span's fields are written
//     only by the goroutine that started it ("owner writes"), and End
//     publishes them with an atomic store of the duration. Readers skip
//     spans whose duration is still zero, so the atomic store/load pair is
//     the only synchronization — concurrent stage goroutines never
//     contend on a lock.
//  3. Traces must be bounded. A trace that overflows its span capacity
//     drops further spans and counts them, rather than growing without
//     limit under a pathological query.
type Trace struct {
	id string

	spans   []span
	n       atomic.Int32 // claimed slots; may exceed len(spans) when overflowing
	dropped atomic.Int64
}

// span is one slot in the trace's span array. name, parent and start are
// written only by the owning goroutine before the endNs store; endNs != 0
// is the publication barrier readers synchronize on.
type span struct {
	name   string
	parent int32 // slot index of the parent span, -1 for roots
	start  time.Time
	endNs  atomic.Int64 // span duration in nanoseconds; 0 while running
}

// DefaultMaxSpans bounds a NewTrace trace. A query produces on the order
// of ten spans (job, queue wait, query, five engine stages), so 256 leaves
// generous room for deeper instrumentation before anything is dropped.
const DefaultMaxSpans = 256

// traceSeq disambiguates trace IDs within a process; traceEpoch
// disambiguates across processes.
var (
	traceSeq   atomic.Uint64
	traceEpoch = uint64(time.Now().UnixNano())
)

// NewTrace returns an empty trace with a process-unique ID, holding at
// most DefaultMaxSpans spans; further spans are dropped and counted.
func NewTrace() *Trace {
	return &Trace{
		id:    fmt.Sprintf("%08x-%06x", uint32(traceEpoch), traceSeq.Add(1)&0xffffff),
		spans: make([]span, DefaultMaxSpans),
	}
}

// startSpan claims a slot for a new span and returns its index, or -1 when
// the trace is nil or full.
func (t *Trace) startSpan(name string, parent int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	n := t.n.Add(1)
	if int(n) > len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	s := &t.spans[n-1]
	s.name = name
	s.parent = parent
	s.start = start
	return n - 1
}

// record adds an already-completed span (e.g. a queue wait measured
// elsewhere); start is back-dated so the tree's time bounds stay truthful.
func (t *Trace) record(name string, parent int32, start time.Time, d time.Duration) {
	if idx := t.startSpan(name, parent, start); idx >= 0 {
		t.spans[idx].endNs.Store(clampNanos(d))
	}
}

func clampNanos(d time.Duration) int64 {
	ns := d.Nanoseconds()
	if ns <= 0 {
		ns = 1 // 0 means "still running"; a finished span must publish
	}
	return ns
}

// claimed returns how many slots hold (possibly unfinished) spans.
func (t *Trace) claimed() int {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return n
}

// Stage is one timed pipeline stage inside a request, the flat view of a
// span shaped for JSON status responses (e.g. a /v1/jobs poll showing
// where a query spent its time).
type Stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Stages returns the completed spans as a flat list in start order — the
// backwards-compatible stage breakdown job snapshots expose. Unfinished
// spans are skipped.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	var out []Stage
	for i := 0; i < t.claimed(); i++ {
		s := &t.spans[i]
		ns := s.endNs.Load()
		if ns == 0 {
			continue
		}
		out = append(out, Stage{Name: s.name, Seconds: time.Duration(ns).Seconds()})
	}
	return out
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
	Seconds float64 `json:"seconds"`
	// DroppedSpans counts spans lost to the capacity bound.
	DroppedSpans int64       `json:"dropped_spans,omitempty"`
	Spans        []*SpanNode `json:"spans"`
}

// Summary snapshots the trace into an immutable span tree. Only finished
// spans are included; a finished span whose ancestors are still running is
// attached to its nearest finished ancestor (or promoted to a root).
// Summary is safe to call concurrently with span recording, but the
// canonical use is once, after the traced request completes.
func (t *Trace) Summary() *TraceSummary {
	if t == nil {
		return nil
	}
	n := t.claimed()
	type flat struct {
		node *SpanNode
		end  time.Time
	}
	nodes := make([]flat, n)
	var minStart, maxEnd time.Time
	for i := 0; i < n; i++ {
		s := &t.spans[i]
		ns := s.endNs.Load() // acquire: orders the owner's writes below
		if ns == 0 {
			continue
		}
		d := time.Duration(ns)
		node := &SpanNode{Name: s.name, Seconds: d.Seconds()}
		end := s.start.Add(d)
		nodes[i] = flat{node: node, end: end}
		if minStart.IsZero() || s.start.Before(minStart) {
			minStart = s.start
		}
		if end.After(maxEnd) {
			maxEnd = end
		}
	}
	sum := &TraceSummary{TraceID: t.id, Start: minStart, DroppedSpans: t.dropped.Load()}
	if !minStart.IsZero() {
		sum.Seconds = maxEnd.Sub(minStart).Seconds()
	}
	for i := 0; i < n; i++ {
		if nodes[i].node == nil {
			continue
		}
		nodes[i].node.StartMS = float64(t.spans[i].start.Sub(minStart).Nanoseconds()) / 1e6
		// Attach to the nearest finished ancestor; parents always occupy
		// lower slots than their children, so their nodes already exist.
		parent := t.spans[i].parent
		for parent >= 0 && nodes[parent].node == nil {
			parent = t.spans[parent].parent
		}
		if parent >= 0 {
			p := nodes[parent].node
			p.Children = append(p.Children, nodes[i].node)
		} else {
			sum.Spans = append(sum.Spans, nodes[i].node)
		}
	}
	return sum
}
