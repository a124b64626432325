package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"accessquery/internal/core"
)

// degradedReq gives the stub a distinct fingerprint per seed.
func seededReq(seed int64) Request {
	r := schoolReq()
	r.Seed = seed
	return r
}

// TestWaitReturnsSentinelErrors pins the Wait bugfix: a job's terminal
// error must come back with its identity intact (not stringified), so the
// HTTP layer can map stable codes. Covers both the per-job deadline and
// the shutdown-cancelled flight.
func TestWaitReturnsSentinelErrors(t *testing.T) {
	stub := &stubEngine{release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	defer close(stub.release)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := m.Do(ctx, schoolReq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job: err = %v, want errors.Is DeadlineExceeded", err)
	}
}

func TestWaitShutdownCancelledJob(t *testing.T) {
	stub := &stubEngine{release: make(chan struct{})} // only ctx frees it
	m := NewManager(stub.run, Config{Workers: 1})
	defer close(stub.release)
	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v", err)
	}
	_, err = m.Wait(context.Background(), job)
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("shutdown-cancelled job: err = %v, want errors.Is ErrShutdown", err)
	}
}

// TestBreakerTripsServesStaleAndRecovers walks the full breaker cycle:
// consecutive failures trip it, an expired cache entry answers with
// staleness metadata while it is open, uncached queries bounce with
// ErrBreakerOpen, and after the cooldown a successful probe closes it.
func TestBreakerTripsServesStaleAndRecovers(t *testing.T) {
	clock := newFakeClock()
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{
		Workers: 1, CacheTTL: time.Minute,
		BreakerThreshold: 2, BreakerCooldown: 10 * time.Minute,
		now: clock.now,
	})
	ctx := context.Background()

	// Seed the cache, then let the entry expire.
	if _, err := m.Do(ctx, seededReq(1)); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)

	stub.err = errors.New("engine on fire")
	for i := int64(2); i <= 3; i++ {
		if _, err := m.Do(ctx, seededReq(i)); err == nil {
			t.Fatal("failing run succeeded")
		}
	}
	if st := m.Stats(); !st.BreakerOpen {
		t.Fatal("breaker closed after consecutive failures")
	}

	// Open breaker: the expired entry for seed 1 answers, stale.
	job, err := m.Submit(seededReq(1))
	if err != nil {
		t.Fatalf("stale-capable query rejected: %v", err)
	}
	s := job.Snapshot()
	if s.State != StateDone || !s.Stale {
		t.Fatalf("snapshot = %+v, want done and stale", s)
	}
	if s.StaleFor != 2*time.Minute {
		t.Errorf("StaleFor = %v, want 2m", s.StaleFor)
	}
	// Uncached query: rejected outright.
	if _, err := m.Submit(seededReq(4)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("uncached query err = %v, want ErrBreakerOpen", err)
	}
	if st := m.Stats(); st.StaleServed != 1 {
		t.Errorf("stats.StaleServed = %d", st.StaleServed)
	}

	// Cooldown passes, the engine recovers: one probe closes the breaker.
	clock.advance(11 * time.Minute)
	stub.err = nil
	if _, err := m.Do(ctx, seededReq(5)); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if st := m.Stats(); st.BreakerOpen {
		t.Error("breaker still open after successful probe")
	}
	if _, err := m.Do(ctx, seededReq(6)); err != nil {
		t.Fatalf("post-recovery query failed: %v", err)
	}
}

// TestBreakerFailedProbeReopens checks the half-open path re-trips on a
// failed probe instead of letting traffic flood a still-broken engine.
func TestBreakerFailedProbeReopens(t *testing.T) {
	clock := newFakeClock()
	stub := &stubEngine{err: errors.New("still broken")}
	m := newTestManager(t, stub, Config{
		Workers: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute,
		now: clock.now,
	})
	ctx := context.Background()

	if _, err := m.Do(ctx, seededReq(1)); err == nil {
		t.Fatal("failing run succeeded")
	}
	clock.advance(2 * time.Minute) // half-open
	if _, err := m.Do(ctx, seededReq(2)); err == nil {
		t.Fatal("failed probe reported success")
	}
	// The failed probe re-opened the breaker for another full cooldown.
	if _, err := m.Submit(seededReq(3)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen after failed probe", err)
	}
}

// TestCancelQueuedJob cancels a job that never reached a worker: its
// flight is skipped entirely and the engine never runs it.
func TestCancelQueuedJob(t *testing.T) {
	stub := &stubEngine{started: make(chan string, 16), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1, QueueDepth: 4})

	lead, err := m.Submit(seededReq(1))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started // worker busy on the lead
	queued, err := m.Submit(seededReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if _, err := m.Wait(context.Background(), queued); !errors.Is(err, ErrCancelled) {
		t.Fatalf("wait on cancelled job: err = %v, want ErrCancelled", err)
	}
	if s := queued.Snapshot(); s.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", s.State)
	}
	if err := m.Cancel(queued.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("double cancel: err = %v, want ErrNotCancellable", err)
	}
	if err := m.Cancel("j-nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown: err = %v, want ErrUnknownJob", err)
	}

	close(stub.release)
	if _, err := m.Wait(context.Background(), lead); err != nil {
		t.Fatal(err)
	}
	// Prove the cancelled flight was skipped: only the lead (and the probe
	// below) ever ran.
	if _, err := m.Do(context.Background(), seededReq(3)); err != nil {
		t.Fatal(err)
	}
	if n := stub.runs.Load(); n != 2 {
		t.Errorf("engine ran %d times, want 2 (cancelled flight executed)", n)
	}
	if st := m.Stats(); st.Cancelled != 1 {
		t.Errorf("stats.Cancelled = %d", st.Cancelled)
	}
}

// TestCancelRunningJob cancels mid-run: the flight's context aborts the
// engine and the job lands in the cancelled state.
func TestCancelRunningJob(t *testing.T) {
	stub := &stubEngine{started: make(chan string, 1), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1})
	defer close(stub.release)

	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started
	if err := m.Cancel(job.ID); err != nil {
		t.Fatalf("cancel running job: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, job); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestAsyncShedsBeforeSync is the tiered load-shedding test: once the
// queue hits 3/4 depth, async submissions bounce while sync ones still
// land, and only a truly full queue rejects sync.
func TestAsyncShedsBeforeSync(t *testing.T) {
	stub := &stubEngine{started: make(chan string, 16), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1, QueueDepth: 4})
	defer close(stub.release)

	if _, err := m.Submit(seededReq(0)); err != nil {
		t.Fatal(err)
	}
	<-stub.started // worker busy; the queue itself is empty
	for i := int64(1); i <= 3; i++ {
		if _, err := m.Submit(seededReq(i)); err != nil {
			t.Fatalf("sync fill %d: %v", i, err)
		}
	}
	// Queue at 3/4: async sheds, sync still admitted.
	if _, err := m.SubmitAsync(seededReq(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("async at 3/4 depth: err = %v, want ErrQueueFull", err)
	}
	if _, err := m.Submit(seededReq(5)); err != nil {
		t.Fatalf("sync at 3/4 depth rejected: %v", err)
	}
	if _, err := m.Submit(seededReq(6)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("sync on full queue: err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.ShedAsync != 1 {
		t.Errorf("stats.ShedAsync = %d, want 1", st.ShedAsync)
	}
}

// TestListJobs covers the listing API: ID order, state filter, and cursor
// pagination.
func TestListJobs(t *testing.T) {
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{Workers: 1})
	ctx := context.Background()
	for i := int64(1); i <= 5; i++ {
		if _, err := m.Do(ctx, seededReq(i)); err != nil {
			t.Fatal(err)
		}
	}
	page1, cur := m.List("", 3, "")
	if len(page1) != 3 || cur == "" {
		t.Fatalf("page1 = %d jobs, cursor %q", len(page1), cur)
	}
	page2, cur2 := m.List("", 3, cur)
	if len(page2) != 2 || cur2 != "" {
		t.Fatalf("page2 = %d jobs, cursor %q", len(page2), cur2)
	}
	for i := 1; i < len(page1); i++ {
		if page1[i].ID <= page1[i-1].ID {
			t.Errorf("listing out of order: %s after %s", page1[i].ID, page1[i-1].ID)
		}
	}
	if page2[0].ID <= page1[2].ID {
		t.Error("cursor page overlaps the first page")
	}
	done, _ := m.List(StateDone, 0, "")
	if len(done) != 5 {
		t.Errorf("done filter = %d jobs, want 5", len(done))
	}
	failed, _ := m.List(StateFailed, 0, "")
	if len(failed) != 0 {
		t.Errorf("failed filter = %d jobs, want 0", len(failed))
	}
}

// TestRequestDeadlineBoundsRun checks that a request's deadline_ms tightens
// the effective run deadline below the server's JobTimeout.
func TestRequestDeadlineBoundsRun(t *testing.T) {
	stub := &stubEngine{release: make(chan struct{})} // blocks until ctx
	m := newTestManager(t, stub, Config{Workers: 1, JobTimeout: time.Hour})
	defer close(stub.release)

	req := schoolReq()
	req.DeadlineMS = 30
	start := time.Now()
	_, err := m.Do(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline_ms=30 run took %v", elapsed)
	}
}

// TestDegradedResultNotCached: a degraded answer is returned but never
// cached, so the next identical query gets a fresh full-fidelity attempt.
func TestDegradedResultNotCached(t *testing.T) {
	stub := &stubEngine{degraded: true}
	m := newTestManager(t, stub, Config{Workers: 1})
	ctx := context.Background()

	res, err := m.Do(ctx, schoolReq())
	if err != nil || res.Degraded == nil {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	stub.degraded = false
	res, err = m.Do(ctx, schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != nil {
		t.Fatal("degraded result was cached")
	}
	if n := stub.runs.Load(); n != 2 {
		t.Errorf("runs = %d, want 2 (degraded result cached)", n)
	}
	// The full-fidelity rerun is cached as usual.
	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatal(err)
	}
	if n := stub.runs.Load(); n != 2 {
		t.Errorf("runs = %d after cache-hit, want 2", n)
	}
}

// TestEpochKeysCacheAndFlights: a query is keyed by fingerprint plus the
// city's current epoch. After an epoch change the same fingerprint misses
// the old epoch's entry and runs, a submission on the new epoch does not
// join a flight admitted on the old one, and the old epoch's answer comes
// back only as the open breaker's stale fallback, flagged epoch_stale.
func TestEpochKeysCacheAndFlights(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(1)
	stub := &stubEngine{}
	var block atomic.Pointer[chan struct{}]
	run := func(ctx context.Context, req Request) (*core.Result, error) {
		ep := epoch.Load() // the epoch the run acquires
		if ch := block.Load(); ch != nil {
			<-*ch
		}
		res, err := stub.run(ctx, req)
		if res != nil {
			res.City, res.Epoch = req.City, ep
		}
		return res, err
	}
	m := NewManager(run, Config{
		Workers: 2, BreakerThreshold: 1, BreakerCooldown: time.Hour,
		EpochOf: func(city string) (string, uint64, bool) { return city, epoch.Load(), city == "coventry" },
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	ctx := context.Background()
	req := schoolReq()
	req.City = "coventry"
	submit := func(step string) Snapshot {
		t.Helper()
		job, err := m.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if _, err := m.Wait(ctx, job); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return job.Snapshot()
	}

	if s := submit("first"); s.CacheHit || s.Epoch != 1 {
		t.Fatalf("first: %+v", s)
	}
	if s := submit("repeat"); !s.CacheHit || s.Epoch != 1 || s.EpochStale {
		t.Fatalf("repeat on epoch 1: %+v", s)
	}
	epoch.Store(2)
	if s := submit("after change"); s.CacheHit || s.Epoch != 2 || s.EpochStale {
		t.Fatalf("same fingerprint after the change: %+v, want a run on epoch 2", s)
	}
	if n := stub.runs.Load(); n != 2 {
		t.Fatalf("engine ran %d times, want 2", n)
	}

	// A flight admitted on epoch 3 is not joined from epoch 4.
	epoch.Store(3)
	gate := make(chan struct{})
	block.Store(&gate)
	old, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	epoch.Store(4)
	fresh, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Snapshot().Deduplicated {
		t.Error("a submission on epoch 4 joined the flight admitted on epoch 3")
	}
	block.Store(nil)
	close(gate)
	for _, j := range []*Job{old, fresh} {
		if _, err := m.Wait(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
	if s := submit("after both flights"); !s.CacheHit || s.Epoch != 4 {
		t.Fatalf("the epoch-3 run must not displace the epoch-4 entry: %+v", s)
	}

	// Epoch 5 with a failing engine: the breaker opens and the epoch-4
	// entry is served stale, honestly flagged.
	epoch.Store(5)
	stub.err = errors.New("engine on fire")
	failing := seededReq(9)
	failing.City = "coventry"
	if _, err := m.Do(ctx, failing); err == nil {
		t.Fatal("failing run succeeded")
	}
	job, err := m.Submit(req)
	if err != nil {
		t.Fatalf("breaker fallback rejected: %v", err)
	}
	if s := job.Snapshot(); !s.CacheHit || !s.Stale || !s.EpochStale || s.Epoch != 4 {
		t.Fatalf("breaker fallback: %+v, want a stale epoch-4 hit flagged epoch_stale", s)
	}
}
