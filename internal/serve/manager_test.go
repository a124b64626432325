package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accessquery/internal/core"
)

// stubEngine counts run invocations and can block, fail, panic, or sleep
// on demand, standing in for the multi-second core.Engine.
type stubEngine struct {
	runs     atomic.Int64
	started  chan string   // receives the category when a run begins
	release  chan struct{} // when non-nil, runs block here (or on ctx)
	delay    time.Duration
	err      error
	panicky  bool
	degraded bool // answer with a degradation report attached
}

// Do is the synchronous path: submit, then wait. It shares the cache,
// dedup, and admission control with async submissions.
func (m *Manager) Do(ctx context.Context, req Request) (*core.Result, error) {
	job, err := m.Submit(req)
	if err != nil {
		return nil, err
	}
	return m.Wait(ctx, job)
}

func (s *stubEngine) run(ctx context.Context, req Request) (*core.Result, error) {
	s.runs.Add(1)
	if s.started != nil {
		s.started <- req.Category
	}
	if s.panicky {
		panic("bad query")
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	res := &core.Result{Fairness: req.Budget}
	if s.degraded {
		res.Degraded = &core.DegradedReport{
			Rungs:   []core.DegradationRung{core.RungPartial},
			Reasons: []string{"stubbed pressure"},
		}
	}
	return res, nil
}

func newTestManager(t *testing.T, stub *stubEngine, cfg Config) *Manager {
	t.Helper()
	m := NewManager(stub.run, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func schoolReq() Request { return Request{Category: "school", Model: "OLS", Budget: 0.2} }

// TestDedupSingleRun is the acceptance-criteria test: identical concurrent
// queries produce exactly one Engine.Run invocation, and every caller gets
// the result.
func TestDedupSingleRun(t *testing.T) {
	stub := &stubEngine{started: make(chan string, 1), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 2})

	lead, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started // the lead run is now inside the engine

	const followers = 5
	jobs := make([]*Job, followers)
	for i := range jobs {
		j, err := m.Submit(schoolReq())
		if err != nil {
			t.Fatal(err)
		}
		if !j.Snapshot().Deduplicated {
			t.Errorf("follower %d not marked deduplicated", i)
		}
		jobs[i] = j
	}
	close(stub.release)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, j := range append(jobs, lead) {
		res, err := m.Wait(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fairness != 0.2 {
			t.Errorf("job %s result %v", j.ID, res.Fairness)
		}
	}
	if n := stub.runs.Load(); n != 1 {
		t.Fatalf("engine ran %d times for %d identical queries", n, followers+1)
	}
	if st := m.Stats(); st.Deduplicated != followers {
		t.Errorf("stats.Deduplicated = %d", st.Deduplicated)
	}
}

func TestCacheHit(t *testing.T) {
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{Workers: 1})
	ctx := context.Background()

	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	snap := job.Snapshot()
	if !snap.CacheHit || snap.State != StateDone {
		t.Fatalf("second identical query not served from cache: %+v", snap)
	}
	if n := stub.runs.Load(); n != 1 {
		t.Errorf("engine ran %d times", n)
	}
	// A different fingerprint misses.
	other := schoolReq()
	other.Seed = 99
	if _, err := m.Do(ctx, other); err != nil {
		t.Fatal(err)
	}
	if n := stub.runs.Load(); n != 2 {
		t.Errorf("distinct query did not run: runs = %d", n)
	}
	if st := m.Stats(); st.CacheHits != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheTTLForcesRerun(t *testing.T) {
	clock := newFakeClock()
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{Workers: 1, CacheTTL: time.Minute, now: clock.now})
	ctx := context.Background()

	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatal(err)
	}
	if n := stub.runs.Load(); n != 2 {
		t.Errorf("expired entry served from cache: runs = %d", n)
	}
}

// TestQueueFull is the admission-control acceptance test: with the single
// worker busy and the queue full, a third distinct query is rejected fast.
func TestQueueFull(t *testing.T) {
	stub := &stubEngine{started: make(chan string, 1), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1, QueueDepth: 1})

	reqA, reqB, reqC := schoolReq(), schoolReq(), schoolReq()
	reqB.Seed, reqC.Seed = 1, 2

	if _, err := m.Submit(reqA); err != nil {
		t.Fatal(err)
	}
	<-stub.started // worker busy on A
	if _, err := m.Submit(reqB); err != nil {
		t.Fatal(err) // sits in the queue
	}
	if _, err := m.Submit(reqC); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if ra := m.RetryAfter(); ra < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", ra)
	}
	// A duplicate of the running query still gets in: dedup needs no slot.
	if _, err := m.Submit(reqA); err != nil {
		t.Errorf("dedup submit rejected while queue full: %v", err)
	}
	close(stub.release)
	if st := m.Stats(); st.Rejected != 1 {
		t.Errorf("stats.Rejected = %d", st.Rejected)
	}
}

func TestJobTimeout(t *testing.T) {
	stub := &stubEngine{release: make(chan struct{})} // blocks until ctx deadline
	m := newTestManager(t, stub, Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	defer close(stub.release)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := m.Do(ctx, schoolReq())
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if st := m.Stats(); st.Failed != 1 {
		t.Errorf("stats.Failed = %d", st.Failed)
	}
}

func TestPanicRecovery(t *testing.T) {
	stub := &stubEngine{panicky: true}
	m := newTestManager(t, stub, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	_, err := m.Do(ctx, schoolReq())
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", err)
	}
	// The worker survived: a healthy query still completes.
	stub.panicky = false
	healthy := schoolReq()
	healthy.Seed = 1
	if _, err := m.Do(ctx, healthy); err != nil {
		t.Fatalf("worker dead after panic: %v", err)
	}
}

func TestEngineErrorNotCached(t *testing.T) {
	stub := &stubEngine{err: errors.New("zone exploded")}
	m := newTestManager(t, stub, Config{Workers: 1})
	ctx := context.Background()

	if _, err := m.Do(ctx, schoolReq()); err == nil || !strings.Contains(err.Error(), "zone exploded") {
		t.Fatalf("err = %v", err)
	}
	stub.err = nil
	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatalf("failure was cached: %v", err)
	}
	if n := stub.runs.Load(); n != 2 {
		t.Errorf("runs = %d", n)
	}
}

func TestWaitCancelled(t *testing.T) {
	stub := &stubEngine{release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1})
	defer close(stub.release)

	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Wait(ctx, job); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	m := newTestManager(t, &stubEngine{}, Config{Workers: 1})
	if _, err := m.Submit(Request{Category: "school", Budget: 3}); err == nil {
		t.Error("invalid budget accepted")
	}
	if _, err := m.Submit(Request{}); err == nil {
		t.Error("empty category accepted")
	}
}

func TestGetUnknownJob(t *testing.T) {
	m := newTestManager(t, &stubEngine{}, Config{Workers: 1})
	if _, err := m.Get("j-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v", err)
	}
}

func TestJobRetention(t *testing.T) {
	clock := newFakeClock()
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{Workers: 1, JobRetention: time.Minute, now: clock.now})
	ctx := context.Background()

	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, job); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(job.ID); err != nil {
		t.Fatalf("fresh job already pruned: %v", err)
	}
	clock.advance(2 * time.Minute)
	other := schoolReq()
	other.Seed = 5
	if _, err := m.Do(ctx, other); err != nil { // Submit triggers pruning
		t.Fatal(err)
	}
	if _, err := m.Get(job.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("retired job still pollable: err = %v", err)
	}
}

func TestShutdownDrains(t *testing.T) {
	stub := &stubEngine{delay: 30 * time.Millisecond}
	m := NewManager(stub.run, Config{Workers: 1})
	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := job.Snapshot(); s.State != StateDone {
		t.Errorf("in-flight job not drained: state = %s (%s)", s.State, s.Error)
	}
	if _, err := m.Submit(schoolReq()); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown: err = %v", err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	stub := &stubEngine{release: make(chan struct{})} // never released: only ctx frees it
	m := NewManager(stub.run, Config{Workers: 1})
	defer close(stub.release)
	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if s := job.Snapshot(); s.State != StateFailed {
		t.Errorf("hung job state = %s, want failed", s.State)
	}
}

// TestConcurrentMixedLoad hammers the manager from many goroutines with a
// small set of fingerprints, checking invariants rather than exact counts;
// run with -race this is the subsystem's thread-safety test.
func TestConcurrentMixedLoad(t *testing.T) {
	stub := &stubEngine{delay: time.Millisecond}
	m := newTestManager(t, stub, Config{Workers: 4, QueueDepth: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	var served, rejected atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				req := schoolReq()
				req.Seed = int64(i % 5)
				res, err := m.Do(ctx, req)
				switch {
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				case err != nil:
					t.Errorf("goroutine %d: %v", g, err)
				case res == nil:
					t.Errorf("goroutine %d: nil result", g)
				default:
					served.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no queries served")
	}
	// 5 distinct fingerprints, 200 requests: the cache and singleflight
	// must have absorbed nearly all of them.
	if n := stub.runs.Load(); n > 50 {
		t.Errorf("engine ran %d times for 5 distinct queries", n)
	}
}

// TestRejectedNotCountedAsSubmitted checks the admission accounting: a
// query bounced by a full queue is counted once (rejected), not also as
// submitted, and consumes no job ID.
func TestRejectedNotCountedAsSubmitted(t *testing.T) {
	stub := &stubEngine{started: make(chan string, 8), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1, QueueDepth: 1})

	reqA, reqB, reqC, reqD := schoolReq(), schoolReq(), schoolReq(), schoolReq()
	reqB.Seed, reqC.Seed, reqD.Seed = 1, 2, 3

	if _, err := m.Submit(reqA); err != nil {
		t.Fatal(err)
	}
	<-stub.started // worker busy on A
	if _, err := m.Submit(reqB); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := m.Submit(reqC); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	st := m.Stats()
	if st.Submitted != 2 {
		t.Errorf("stats.Submitted = %d, want 2 (rejection double-counted)", st.Submitted)
	}
	if st.Rejected != 1 {
		t.Errorf("stats.Rejected = %d, want 1", st.Rejected)
	}
	close(stub.release) // drain A and B, freeing a queue slot
	deadline := time.After(2 * time.Second)
	for len(m.queue) > 0 {
		select {
		case <-deadline:
			t.Fatal("queue never drained")
		case <-time.After(time.Millisecond):
		}
	}
	job, err := m.Submit(reqD)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j00000003" {
		t.Errorf("job ID = %q, want j00000003 (rejection consumed an ID)", job.ID)
	}
}

// TestPruneOnGet checks that retention is enforced by polling alone: on a
// server with no further submissions, an expired job still disappears.
func TestPruneOnGet(t *testing.T) {
	clock := newFakeClock()
	m := newTestManager(t, &stubEngine{}, Config{Workers: 1, JobRetention: time.Minute, now: clock.now})
	ctx := context.Background()

	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, job); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	if _, err := m.Get(job.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired job survived an idle server: err = %v", err)
	}
}

// TestDedupAttachWhileRunning checks that a follower attaching to a flight
// the worker has already picked up reports "running", not "queued".
func TestDedupAttachWhileRunning(t *testing.T) {
	stub := &stubEngine{started: make(chan string, 1), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1})
	defer close(stub.release)

	lead, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started // the run is in progress
	follower, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	s := follower.Snapshot()
	if !s.Deduplicated {
		t.Error("follower not deduplicated")
	}
	if s.State != StateRunning {
		t.Errorf("follower state = %s, want running", s.State)
	}
	if ls := lead.Snapshot(); ls.State != StateRunning {
		t.Errorf("lead state = %s, want running", ls.State)
	}
}
