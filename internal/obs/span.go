package obs

import (
	"context"
	"time"
)

// spanCtxKey carries the trace and the index of the current span, so a
// child span started further down the call stack knows its parent.
type spanCtxKey struct{}

type spanRef struct {
	tr  *Trace
	idx int32 // current span's index; -1 at the trace root
}

// WithTrace returns a context carrying t as the trace for the request.
// Spans started under the returned context become roots of t's tree. The
// trace records one request on one goroutine: every span under the
// context must be started and ended by the goroutine that owns t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanRef{tr: t, idx: -1})
}

// Span is a handle to one started span. It is a value type so the
// disabled path — no trace on the context — allocates nothing: the handle
// then carries only the start time and the optional histogram, and End is
// a nil-check away from skipping the trace.
//
// End must be called exactly once, by the trace's owning goroutine.
type Span struct {
	tr    *Trace
	idx   int32
	start time.Time
	hist  *HistogramMetric
}

// Start begins a span named name as a child of the context's current
// span. The elapsed time is recorded into h (when non-nil) at End whether
// or not a trace is present, so aggregate histograms keep working with
// tracing disabled. When a trace is active, the returned context carries
// the new span as the parent for deeper calls; otherwise ctx is returned
// unchanged and the whole call costs one time.Now.
func Start(ctx context.Context, name string, h *HistogramMetric) (context.Context, Span) {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	sp := Span{start: time.Now(), hist: h}
	if ref.tr == nil {
		return ctx, sp
	}
	sp.tr = ref.tr
	sp.idx = ref.tr.startSpan(name, ref.idx, sp.start)
	return context.WithValue(ctx, spanCtxKey{}, spanRef{tr: ref.tr, idx: sp.idx}), sp
}

// RecordSpan appends an already-completed span of duration d as a child
// of the context's current span (e.g. a wait measured before the traced
// region was entered). No-op without a trace.
func RecordSpan(ctx context.Context, name string, d time.Duration) {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	if ref.tr == nil {
		return
	}
	ref.tr.end(ref.tr.startSpan(name, ref.idx, time.Now().Add(-d)), d)
}

// End finishes the span, observes its duration into the histogram given
// at Start, closes it in the trace, and returns the duration.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.ObserveDuration(d)
	}
	if s.tr != nil {
		s.tr.end(s.idx, d)
	}
	return d
}
