package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/olog"
)

// TestJobCarriesTrace verifies every executed job ends with a span tree —
// a "job" root with a queue_wait child — beside its fingerprint.
func TestJobCarriesTrace(t *testing.T) {
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{Workers: 1})

	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, job); err != nil {
		t.Fatal(err)
	}

	snap := job.Snapshot()
	if got := snap.Fingerprint; got != schoolReq().Fingerprint() {
		t.Errorf("fingerprint = %v, want %s", got, schoolReq().Fingerprint())
	}
	tr := snap.Trace
	if tr == nil {
		t.Fatal("completed job has no trace")
	}
	if tr.TraceID == "" {
		t.Error("trace ID empty")
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
		t.Fatalf("no single job root span; roots = %+v", tr.Spans)
	}
	if c := tr.Spans[0].Children; len(c) == 0 || c[0].Name != "queue_wait" {
		t.Errorf("job's first child is not queue_wait: %+v", c)
	}
}

// TestServedRunStagesAreLeaves guards the single-owner trace of a served
// run: its tree is job → {queue_wait, query → the five engine stages},
// recorded on the worker goroutine at any engine parallelism, and every
// stage outlet — the job's stage list, explain and the cost bill — lists
// exactly the tree's leaves. The clock is frozen, so the queue wait is
// recorded as 1 ns and the bound below is structural: the stages are
// disjoint intervals nested inside query, inside job.
func TestServedRunStagesAreLeaves(t *testing.T) {
	acct := account.New()
	clock := newFakeClock()
	m := NewManager(RegistryRunner(oneTenantRegistry(t), RunnerConfig{Parallelism: 4}),
		Config{Workers: 1, Accountant: acct, now: clock.now})
	defer m.Shutdown(context.Background())
	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	snap := job.Snapshot()
	want := []string{"queue_wait", "matrix", "sampling", "labeling", "features", "training"}
	names := func(stages []obs.Stage) []string {
		out := make([]string, len(stages))
		for i, st := range stages {
			out[i] = st.Name
		}
		return out
	}
	if got := names(snap.Stages); !slices.Equal(got, want) {
		t.Fatalf("job stages = %v, want %v", got, want)
	}
	if got := names(core.Explain(snap.Result, snap.Trace).Stages); !slices.Equal(got, want) {
		t.Errorf("explain stages = %v, want %v", got, want)
	}
	billed := acct.Snapshot()[0].StageSeconds
	for _, name := range want {
		if _, ok := billed[name]; !ok || len(billed) != len(want) {
			t.Errorf("billed stages = %v, want exactly %v", billed, want)
			break
		}
	}

	spans := snap.Trace.Spans
	if len(spans) != 1 || spans[0].Name != "job" {
		t.Fatalf("roots = %+v, want one job span", spans)
	}
	jobSpan := spans[0]
	if c := jobSpan.Children; len(c) != 2 || c[0].Name != "queue_wait" || c[1].Name != "query" {
		t.Fatalf("job children = %+v, want queue_wait and query", c)
	}
	var sum float64
	for _, st := range snap.Stages {
		sum += st.Seconds
	}
	if sum > jobSpan.Seconds {
		t.Errorf("stages sum to %gs, more than the %gs job span", sum, jobSpan.Seconds)
	}
}

// TestCacheHitRetainsTrace is the satellite-3 regression test: a job
// served from the result cache must still expose the producing run's
// trace, so GET /v1/jobs/{id}/trace works for cache hits.
func TestCacheHitRetainsTrace(t *testing.T) {
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{Workers: 1})
	ctx := context.Background()

	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatal(err)
	}
	first, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	snap := first.Snapshot()
	if !snap.CacheHit {
		t.Fatalf("second identical query not a cache hit: %+v", snap)
	}
	if snap.Trace == nil {
		t.Fatal("cache-hit job lost the producing run's trace")
	}
	if len(snap.Trace.Spans) == 0 || snap.Trace.Spans[0].Name != "job" {
		t.Error("cache-hit trace missing the job span")
	}
	if n := stub.runs.Load(); n != 1 {
		t.Errorf("engine ran %d times", n)
	}
}

// TestFailedRunKeepsTrace checks error paths still publish their partial
// trace, which is exactly when an operator wants it.
func TestFailedRunKeepsTrace(t *testing.T) {
	stub := &stubEngine{err: context.DeadlineExceeded}
	m := newTestManager(t, stub, Config{Workers: 1})

	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, job); err == nil {
		t.Fatal("expected engine error")
	}
	if job.Snapshot().Trace == nil {
		t.Error("failed job has no trace")
	}
}

// TestSlowQueryLog verifies the threshold-gated structured slow-query
// log: any run over the threshold emits one JSON warn line with the
// trace ID and timings.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logMu := &syncBuffer{buf: &buf}
	stub := &stubEngine{delay: 5 * time.Millisecond}
	m := newTestManager(t, stub, Config{
		Workers:            1,
		SlowQueryThreshold: time.Nanosecond,
		Logger:             olog.New(logMu, olog.LevelInfo),
	})
	if _, err := m.Do(context.Background(), schoolReq()); err != nil {
		t.Fatal(err)
	}

	line := logMu.line(t, "slow query")
	var m1 map[string]any
	if err := json.Unmarshal([]byte(line), &m1); err != nil {
		t.Fatalf("slow-query line is not JSON: %q: %v", line, err)
	}
	if m1["level"] != "warn" {
		t.Errorf("level = %v, want warn", m1["level"])
	}
	for _, key := range []string{"trace_id", "fingerprint", "seconds", "threshold_seconds"} {
		if _, ok := m1[key]; !ok {
			t.Errorf("slow-query line missing %q: %v", key, m1)
		}
	}
}

// TestFastQueryNotLoggedSlow checks the gate: runs under the threshold
// stay silent.
func TestFastQueryNotLoggedSlow(t *testing.T) {
	var buf bytes.Buffer
	logMu := &syncBuffer{buf: &buf}
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{
		Workers:            1,
		SlowQueryThreshold: time.Hour,
		Logger:             olog.New(logMu, olog.LevelInfo),
	})
	if _, err := m.Do(context.Background(), schoolReq()); err != nil {
		t.Fatal(err)
	}
	if s := logMu.String(); strings.Contains(s, "slow query") {
		t.Errorf("fast run logged as slow: %q", s)
	}
}

// syncBuffer guards a bytes.Buffer: the manager's worker goroutine writes
// log lines while the test goroutine reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// line returns the first logged line containing substr, failing the test
// if none exists.
func (b *syncBuffer) line(t *testing.T, substr string) string {
	t.Helper()
	for _, l := range strings.Split(b.String(), "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	t.Fatalf("no log line containing %q in %q", substr, b.String())
	return ""
}
