package serve

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/capture"
	"accessquery/internal/obs/olog"
	"accessquery/internal/obs/slo"
)

// anyCity is a city resolver that serves every name as its own tenant on
// epoch 0, so a test can name the tenant a registry-less run bills.
func anyCity(city string) (string, uint64, bool) { return city, 0, true }

func testSLO(t *testing.T, spec string) *slo.Engine {
	t.Helper()
	s, err := slo.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return slo.New(s)
}

// TestBurnTripOpensBreaker checks the SLO integration path: a tenant whose
// fast burn rate crosses the burn-trip threshold has its breaker opened
// even though the consecutive-failure threshold is nowhere near tripping.
func TestBurnTripOpensBreaker(t *testing.T) {
	clock := newFakeClock()
	stub := &stubEngine{err: errors.New("engine on fire")}
	m := newTestManager(t, stub, Config{
		Workers: 1,
		// Consecutive-failure threshold far out of reach: any trip below
		// comes from the burn signal alone.
		BreakerThreshold: 100, BreakerCooldown: 10 * time.Minute,
		SLO: testSLO(t, "avail=99"), BurnTripThreshold: 14.4,
		now: clock.now,
	})
	ctx := context.Background()

	// One total request, one error: bad fraction 1.0 against a 1% budget
	// is a burn rate of 100 — far past the 14.4 page threshold.
	if _, err := m.Do(ctx, seededReq(1)); err == nil {
		t.Fatal("failing run succeeded")
	}
	if st := m.Stats(); !st.BreakerOpen {
		t.Fatal("breaker closed despite fast burn over threshold")
	}
	if _, err := m.Submit(seededReq(2)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("uncached query err = %v, want ErrBreakerOpen", err)
	}
}

// TestBurnBelowThresholdNoTrip is the inverse: failures within the error
// budget leave the breaker alone.
func TestBurnBelowThresholdNoTrip(t *testing.T) {
	stub := &stubEngine{err: errors.New("occasional failure")}
	m := newTestManager(t, stub, Config{
		Workers:          1,
		BreakerThreshold: 100, BreakerCooldown: 10 * time.Minute,
		// 50% availability target: one failure in one request burns at
		// 1/0.5 = 2, under the 14.4 trip threshold.
		SLO: testSLO(t, "avail=50"), BurnTripThreshold: 14.4,
	})
	if _, err := m.Do(context.Background(), seededReq(1)); err == nil {
		t.Fatal("failing run succeeded")
	}
	if st := m.Stats(); st.BreakerOpen {
		t.Fatal("breaker tripped on a burn rate under the threshold")
	}
}

// TestSlowQueryCapture drives a run over the slow-query threshold and
// checks the full evidence chain: the capture is linked to the job, tagged
// with the tenant and trace, and carries the run's elapsed time.
func TestSlowQueryCapture(t *testing.T) {
	store, err := capture.NewStore(capture.Config{})
	if err != nil {
		t.Fatal(err)
	}
	acct := account.New()
	stub := &stubEngine{delay: 5 * time.Millisecond}
	m := newTestManager(t, stub, Config{
		Workers:            1,
		SlowQueryThreshold: time.Millisecond,
		Captures:           store,
		Accountant:         acct,
		EpochOf:            anyCity,
	})
	req := schoolReq()
	req.City = "coventry"
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	c, ok := store.ByJob(job.ID)
	if !ok {
		t.Fatal("slow run left no capture linked to its job")
	}
	if c.Reason != capture.ReasonSlowQuery {
		t.Errorf("reason = %q, want slow_query", c.Reason)
	}
	if c.City != "coventry" || c.TraceID == "" {
		t.Errorf("capture = city %q trace %q", c.City, c.TraceID)
	}
	if c.ElapsedSeconds <= 0 {
		t.Errorf("capture elapsed = %g, want > 0", c.ElapsedSeconds)
	}

	snap := acct.Snapshot()
	if len(snap) != 1 || snap[0].City != "coventry" || snap[0].Jobs != 1 {
		t.Errorf("accountant snapshot = %+v", snap)
	}
}

// TestDeadlineCapture checks the second trigger: a run that exhausts its
// deadline is captured with the deadline reason even with no slow-query
// threshold configured.
func TestDeadlineCapture(t *testing.T) {
	store, err := capture.NewStore(capture.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubEngine{release: make(chan struct{})}
	m := newTestManager(t, stub, Config{
		Workers: 1, JobTimeout: 20 * time.Millisecond,
		Captures: store,
	})
	defer close(stub.release)
	if _, err := m.Do(context.Background(), schoolReq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if store.Len() != 1 {
		t.Fatalf("captures = %d, want 1", store.Len())
	}
	if c := store.List()[0]; c.Reason != capture.ReasonDeadline {
		t.Errorf("reason = %q, want deadline", c.Reason)
	}
}

// TestAccountantBillsRunsAndCacheHits pins the cost-attribution split: an
// engine run is billed, an identical follow-up answered from cache is a
// cache hit, not a second job.
func TestAccountantBillsRunsAndCacheHits(t *testing.T) {
	acct := account.New()
	stub := &stubEngine{}
	m := newTestManager(t, stub, Config{
		Workers: 1, CacheTTL: time.Minute, Accountant: acct, EpochOf: anyCity,
	})
	ctx := context.Background()
	req := schoolReq()
	req.City = "leeds"
	if _, err := m.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	snap := acct.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %+v, want one tenant", snap)
	}
	tc := snap[0]
	if tc.City != "leeds" || tc.Jobs != 1 || tc.CacheHits != 1 {
		t.Errorf("cost = %+v, want 1 job + 1 cache hit", tc)
	}
	if tc.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %v, want > 0", tc.WallSeconds)
	}
}

// TestCityFamiliesHaveNoUnlabeledTwin pins that every serving family with
// a per-city breakdown exports only the labeled series — an unlabeled copy
// made sum() count each event twice — and that for a one-city manager each
// city series reads what Stats (or TenantStats) reports.
func TestCityFamiliesHaveNoUnlabeledTwin(t *testing.T) {
	const city = "paritycity"
	run := func(ctx context.Context, req Request) (*core.Result, error) {
		if req.Seed == 2 {
			return nil, errors.New("boom")
		}
		return &core.Result{Fairness: req.Budget}, nil
	}
	m := NewManager(run, Config{
		Workers: 1, BreakerThreshold: 1, BreakerCooldown: time.Hour,
		SlowQueryThreshold: time.Nanosecond,
		Logger:             olog.New(&bytes.Buffer{}, olog.LevelWarn),
		EpochOf:            anyCity,
	})
	defer m.Shutdown(context.Background())
	ctx := context.Background()
	ok, bad := schoolReq(), schoolReq()
	ok.City, bad.City, bad.Seed = city, city, 2
	m.Do(ctx, ok)  // completed
	m.Do(ctx, ok)  // cache hit
	m.Do(ctx, bad) // failed: trips the breaker

	st := m.Stats()
	ts := m.TenantStats()
	if len(ts) != 1 || st.Completed != 1 || st.CacheHits != 1 || st.Failed != 1 || !st.BreakerOpen {
		t.Fatalf("stats = %+v, tenants = %+v", st, ts)
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	want := map[string]float64{
		"aq_serve_submitted_total":     float64(st.Submitted),
		"aq_serve_cache_hits_total":    float64(st.CacheHits),
		"aq_serve_completed_total":     float64(st.Completed),
		"aq_serve_failed_total":        float64(st.Failed),
		"aq_serve_stale_served_total":  float64(st.StaleServed),
		"aq_serve_shed_async_total":    float64(st.ShedAsync),
		"aq_serve_breaker_open":        b2f(st.BreakerOpen),
		"aq_serve_queue_depth":         float64(st.QueueLen),
		"aq_serve_breaker_trips_total": float64(ts[0].BreakerTrips),
		"aq_serve_burn_trips_total":    0,
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		for family := range want {
			if strings.HasPrefix(line, family+" ") {
				t.Errorf("unlabeled series exported: %q", line)
			}
			if v, found := strings.CutPrefix(line, family+`{city="`+city+`"} `); found {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				got[family] = f
			}
		}
	}
	for family, w := range want {
		if g, ok := got[family]; !ok || g != w {
			t.Errorf("%s{city=%q} = %v (exported %v), want %v", family, city, g, ok, w)
		}
	}
}

// observeAllocs measures m.observe itself — the path every served query
// takes — for one engine-run outcome and one cache-hit outcome.
func observeAllocs(m *Manager) (run, hit float64) {
	tr := obs.NewTrace()
	obs.RecordSpan(obs.WithTrace(context.Background(), tr), "matrix", time.Millisecond)
	sum := tr.Summary()
	name, _, _ := m.resolve("coventry")
	m.mu.Lock()
	ts := m.tenantLocked(name)
	m.mu.Unlock()
	ran := outcome{
		kind: ranEngine, tenant: ts, fp: "fp", ans: answer{trace: sum},
		elapsed: time.Millisecond, stages: sum.Stages(), spqs: 10, bankDrained: 3,
	}
	hitO := outcome{kind: hitFresh, tenant: ts, fp: "fp"}
	run = testing.AllocsPerRun(200, func() { m.observe(&ran) })
	hit = testing.AllocsPerRun(200, func() { m.observe(&hitO) })
	return run, hit
}

// TestDisabledObservabilityHooksZeroAlloc runs m.observe with every outlet
// off — no accountant, no SLO engine, no capture store, no slow-query
// threshold — and asserts a served query pays nothing for observation.
func TestDisabledObservabilityHooksZeroAlloc(t *testing.T) {
	m := newTestManager(t, &stubEngine{}, Config{Workers: 1})
	run, hit := observeAllocs(m)
	if run != 0 || hit != 0 {
		t.Errorf("observe with every outlet off allocates %.1f per run and %.1f per hit, want 0", run, hit)
	}
}

// TestObserveAllocsWithAccountantAndSLO pins what cost accounting and SLO
// tracking (with burn tripping armed) add to a served query when no capture
// is taken: nothing.
func TestObserveAllocsWithAccountantAndSLO(t *testing.T) {
	const want = 0
	m := newTestManager(t, &stubEngine{}, Config{
		Workers: 1, Accountant: account.New(),
		SLO: testSLO(t, "p99=2s,avail=99.9"), BurnTripThreshold: 14.4,
	})
	run, hit := observeAllocs(m)
	if run != want || hit != want {
		t.Errorf("observe with accountant and SLO on allocates %.1f per run and %.1f per hit, want %d", run, hit, want)
	}
}

// TestCancelledFlightIsNeutral pins that an outcome is classified once,
// from the run's final error. The flight's deadline fires, its only job is
// then cancelled, and the engine still hands back a degraded answer: the
// run ends cancelled, so neither the SLO nor the completion counts see it.
func TestCancelledFlightIsNeutral(t *testing.T) {
	deadlineHit := make(chan struct{})
	cancelled := make(chan struct{})
	run := func(ctx context.Context, req Request) (*core.Result, error) {
		<-ctx.Done()
		close(deadlineHit)
		<-cancelled
		return &core.Result{Degraded: &core.DegradedReport{
			Rungs: []core.DegradationRung{core.RungPartial}, Reasons: []string{"deadline"},
		}}, nil
	}
	eng := testSLO(t, "avail=99")
	m := NewManager(run, Config{Workers: 1, JobTimeout: 10 * time.Millisecond, SLO: eng})
	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	<-deadlineHit
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	close(cancelled)
	// Shutdown waits for the worker, so the flight has been observed.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	reps := eng.Snapshot()
	if len(reps) != 1 {
		t.Fatalf("SLO tenants = %+v, want the manager's one record", reps)
	}
	if total := reps[0].Windows[0].Total; total != 0 {
		t.Errorf("SLO 5m total = %d, want 0 (a cancelled flight is neutral)", total)
	}
	st := m.Stats()
	if st.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Completed+st.Failed != 0 {
		t.Errorf("Completed+Failed = %d+%d, want 0", st.Completed, st.Failed)
	}
}
