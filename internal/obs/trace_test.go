package obs

import (
	"context"
	"fmt"
	"sync"
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
	if sum.DroppedSpans != 0 {
		t.Errorf("DroppedSpans = %d, want 0", sum.DroppedSpans)
	}
}

// TestTraceConcurrentSpans exercises the lock-free span array from many
// goroutines at once; run with -race. Each goroutine starts its own child
// and grandchild under the shared root, which is the pattern the engine's
// parallel stages use.
func TestTraceConcurrentSpans(t *testing.T) {
	const workers = 32
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	rctx, root := Start(ctx, "root", nil)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, sp := Start(rctx, fmt.Sprintf("worker-%d", i), nil)
			_, inner := Start(cctx, "inner", nil)
			inner.End()
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()

	sum := tr.Summary()
	if len(sum.Spans) != 1 {
		t.Fatalf("roots = %d, want 1", len(sum.Spans))
	}
	if got := len(sum.Spans[0].Children); got != workers {
		t.Fatalf("root children = %d, want %d", got, workers)
	}
	seen := make(map[string]bool, workers)
	for _, c := range sum.Spans[0].Children {
		seen[c.Name] = true
		if len(c.Children) != 1 || c.Children[0].Name != "inner" {
			t.Errorf("child %s inner spans = %+v, want one inner", c.Name, c.Children)
		}
	}
	if len(seen) != workers {
		t.Errorf("distinct worker spans = %d, want %d", len(seen), workers)
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

// TestTraceSpanOverflow checks the capacity bound: spans beyond the cap
// are dropped and counted rather than growing the trace.
func TestTraceSpanOverflow(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < DefaultMaxSpans+3; i++ {
		_, sp := Start(ctx, fmt.Sprintf("s%d", i), nil)
		sp.End() // must be a safe no-op on the trace for dropped spans
	}
	sum := tr.Summary()
	if len(sum.Spans) != DefaultMaxSpans {
		t.Fatalf("retained spans = %d, want %d", len(sum.Spans), DefaultMaxSpans)
	}
	if sum.DroppedSpans != 3 {
		t.Errorf("DroppedSpans = %d, want 3", sum.DroppedSpans)
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

// BenchmarkSpanEnabled measures the enabled path: claim a slot, publish.
func BenchmarkSpanEnabled(b *testing.B) {
	b.ReportAllocs()
	tr := NewTrace()
	tr.spans = make([]span, b.N+1)
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
