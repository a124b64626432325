package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// find returns the first span named name in a depth-first walk of the
// summary's roots, or nil.
func find(sum *TraceSummary, name string) *SpanNode {
	var found *SpanNode
	for _, r := range sum.Spans {
		r.Walk(func(n *SpanNode) {
			if found == nil && n.Name == name {
				found = n
			}
		})
	}
	return found
}

// TestSpanTreeHierarchy checks that nested Start calls produce the
// expected parent/child structure and that Walk traverses it.
func TestSpanTreeHierarchy(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)

	ctx, job := Start(ctx, "job", nil)
	RecordSpan(ctx, "queue_wait", 5*time.Millisecond)

	qctx, query := Start(ctx, "query", nil)
	for _, name := range []string{"matrix", "sampling", "labeling"} {
		_, sp := Start(qctx, name, nil)
		sp.End()
	}
	query.End()
	job.End()

	sum := tr.Summary()
	if sum == nil || sum.TraceID != tr.id {
		t.Fatalf("Summary trace ID = %+v, want ID %q", sum, tr.id)
	}
	if len(sum.Spans) != 1 || sum.Spans[0].Name != "job" {
		t.Fatalf("roots = %+v, want single job root", sum.Spans)
	}
	root := sum.Spans[0]
	// job's children: queue_wait (recorded) and query, in start order.
	names := make([]string, len(root.Children))
	for i, c := range root.Children {
		names[i] = c.Name
	}
	if len(names) != 2 || names[0] != "queue_wait" || names[1] != "query" {
		t.Fatalf("job children = %v, want [queue_wait query]", names)
	}
	q := root.Children[1]
	if len(q.Children) != 3 {
		t.Fatalf("query children = %d, want 3 stages", len(q.Children))
	}
	var visited int
	root.Walk(func(*SpanNode) { visited++ })
	if visited != 6 { // job, queue_wait, query, 3 stages
		t.Errorf("Walk visited %d nodes, want 6", visited)
	}
	var stages []string
	for _, st := range sum.Stages() {
		stages = append(stages, st.Name)
	}
	if got := strings.Join(stages, ","); got != "queue_wait,matrix,sampling,labeling" {
		t.Errorf("Stages = %s, want the leaves queue_wait,matrix,sampling,labeling", got)
	}
}

// TestSummaryWhileRunning verifies that snapshotting a live trace skips
// unfinished spans and reparents finished children of running spans onto
// their nearest finished ancestor (here: promoted to roots).
func TestSummaryWhileRunning(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	rctx, root := Start(ctx, "running-root", nil)
	_, done := Start(rctx, "done-child", nil)
	done.End()

	sum := tr.Summary()
	if find(sum, "running-root") != nil {
		t.Error("unfinished span should not appear in summary")
	}
	if len(sum.Spans) != 1 || sum.Spans[0].Name != "done-child" {
		t.Fatalf("roots = %+v, want done-child promoted to root", sum.Spans)
	}
	root.End()
	if got := tr.Summary().Spans[0].Name; got != "running-root" {
		t.Errorf("after End, root = %q, want running-root", got)
	}
}

// TestDisabledPathNoAllocs asserts the tracing-disabled hot path —
// Start/End on a context without a trace — allocates nothing.
func TestDisabledPathNoAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		_, sp := Start(ctx, "stage", nil)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled is the benchmark form of the zero-cost assertion;
// run with -benchmem to see 0 allocs/op.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage", nil)
		sp.End()
	}
}

// BenchmarkSpanEnabled measures the enabled path: append a span, close it.
func BenchmarkSpanEnabled(b *testing.B) {
	b.ReportAllocs()
	tr := NewTrace()
	tr.spans = make([]span, 0, b.N)
	ctx := WithTrace(context.Background(), tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage", nil)
		sp.End()
	}
}

// TestTraceIDsUnique guards the ID scheme against collisions within a
// process.
func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTrace().Summary().TraceID
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
	if NewTrace().Summary().TraceID == "" {
		t.Error("trace ID should be non-empty")
	}
	var nilTrace *Trace
	if nilTrace.Summary() != nil {
		t.Error("nil trace summary should be nil")
	}
}
