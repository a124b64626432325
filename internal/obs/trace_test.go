package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSpanTreeHierarchy checks that nested Start calls produce the
// expected parent/child structure with attributes, and that Find and Walk
// traverse it.
func TestSpanTreeHierarchy(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)

	ctx, job := Start(ctx, "job", nil)
	job.SetString("fingerprint", "abc")
	RecordSpan(ctx, "queue_wait", 5*time.Millisecond)

	qctx, query := Start(ctx, "query", nil)
	query.SetString("model", "MLP")
	query.SetInt("zones", 42)

	for _, name := range []string{"matrix", "sampling", "labeling"} {
		_, sp := Start(qctx, name, nil)
		sp.SetInt("order", 1)
		sp.End()
	}
	query.End()
	job.End()

	sum := tr.Summary()
	if sum == nil || sum.TraceID != tr.ID() {
		t.Fatalf("Summary trace ID = %+v, want ID %q", sum, tr.ID())
	}
	if len(sum.Spans) != 1 || sum.Spans[0].Name != "job" {
		t.Fatalf("roots = %+v, want single job root", sum.Spans)
	}
	root := sum.Spans[0]
	if got := root.Attrs["fingerprint"]; got != "abc" {
		t.Errorf("job fingerprint attr = %v, want abc", got)
	}
	// job's children: queue_wait (recorded) and query, in start order.
	names := make([]string, len(root.Children))
	for i, c := range root.Children {
		names[i] = c.Name
	}
	if len(names) != 2 || names[0] != "queue_wait" || names[1] != "query" {
		t.Fatalf("job children = %v, want [queue_wait query]", names)
	}
	q := sum.Find("query")
	if q == nil {
		t.Fatal("Find(query) = nil")
	}
	if got := q.Attrs["model"]; got != "MLP" {
		t.Errorf("query model attr = %v, want MLP", got)
	}
	if got := q.Attrs["zones"]; got != int64(42) {
		t.Errorf("query zones attr = %v (%T), want int64 42", got, got)
	}
	if len(q.Children) != 3 {
		t.Fatalf("query children = %d, want 3 stages", len(q.Children))
	}
	var visited int
	root.Walk(func(*SpanNode) { visited++ })
	if visited != 6 { // job, queue_wait, query, 3 stages
		t.Errorf("Walk visited %d nodes, want 6", visited)
	}
	if sum.Find("no-such-span") != nil {
		t.Error("Find of unknown name should return nil")
	}
	if sum.DroppedSpans != 0 {
		t.Errorf("DroppedSpans = %d, want 0", sum.DroppedSpans)
	}
}

// TestTraceConcurrentSpans exercises the lock-free span array from many
// goroutines at once; run with -race. Each goroutine starts its own child
// under the shared root and sets attributes on it, which is the pattern
// the engine's parallel stages use.
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
			sp.SetInt("worker", int64(i))
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
	for _, c := range sum.Spans[0].Children {
		if _, ok := c.Attrs["worker"]; !ok {
			t.Errorf("child %s missing worker attr", c.Name)
		}
		if len(c.Children) != 1 || c.Children[0].Name != "inner" {
			t.Errorf("child %s inner spans = %+v, want one inner", c.Name, c.Children)
		}
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
	if sum.Find("running-root") != nil {
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
	tr := NewTraceCap(2)
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, fmt.Sprintf("s%d", i), nil)
		sp.SetInt("i", int64(i)) // must be a safe no-op on dropped spans
		sp.End()
	}
	sum := tr.Summary()
	if len(sum.Spans) != 2 {
		t.Fatalf("retained spans = %d, want 2", len(sum.Spans))
	}
	if sum.DroppedSpans != 3 {
		t.Errorf("DroppedSpans = %d, want 3", sum.DroppedSpans)
	}
}

// TestDisabledPathNoAllocs asserts the tracing-disabled hot path —
// Start/SetInt/End on a context without a trace — allocates nothing.
func TestDisabledPathNoAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		_, sp := Start(ctx, "stage", nil)
		sp.SetInt("zones", 7)
		sp.SetString("model", "MLP")
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

// BenchmarkSpanEnabled measures the enabled path: claim a slot, set an
// attribute, publish.
func BenchmarkSpanEnabled(b *testing.B) {
	b.ReportAllocs()
	tr := NewTraceCap(b.N + 1)
	ctx := WithTrace(context.Background(), tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "stage", nil)
		sp.SetInt("i", int64(i))
		sp.End()
	}
}

// TestTraceIDsUnique guards the ID scheme against collisions within a
// process.
func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTrace().ID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
	if NewTrace().ID() == "" {
		t.Error("trace ID should be non-empty")
	}
	var nilTrace *Trace
	if nilTrace.ID() != "" {
		t.Error("nil trace ID should be empty")
	}
}
