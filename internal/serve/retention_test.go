package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/obs/olog"
	"accessquery/internal/registry"
	"accessquery/internal/synth"
)

// TestHitCostIndependentOfRetainedJobs: a cache hit prunes by popping the
// finished queue, so its cost does not grow with the jobs retained. At the
// parent commit, which scanned every retained job under the manager lock on
// each submission, 50,000 retained jobs made a hit cost 1.7 ms.
func TestHitCostIndependentOfRetainedJobs(t *testing.T) {
	m := newTestManager(t, &stubEngine{}, Config{Workers: 1})
	ctx := context.Background()
	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatal(err)
	}
	hit := func() {
		job, err := m.Submit(schoolReq())
		if err != nil {
			t.Fatal(err)
		}
		if s := job.Snapshot(); !s.CacheHit || s.State != StateDone {
			t.Fatalf("not a completed cache hit: %+v", s)
		}
	}
	for i := 0; i < 50000; i++ {
		hit()
	}
	const timed = 1000
	start := time.Now()
	for i := 0; i < timed; i++ {
		hit()
	}
	if per := time.Since(start) / timed; per > 200*time.Microsecond {
		t.Errorf("a hit costs %v after 50,000 earlier hits, want < 200µs", per)
	}
}

// TestFinishedJobCap: however long the retention, at most maxFinishedJobs
// finished jobs stay pollable, the oldest leaving first.
func TestFinishedJobCap(t *testing.T) {
	m := newTestManager(t, &stubEngine{}, Config{Workers: 1, JobRetention: time.Hour})
	ctx := context.Background()
	if _, err := m.Do(ctx, schoolReq()); err != nil {
		t.Fatal(err)
	}
	const extra = 10
	ids := make([]string, 0, maxFinishedJobs+extra)
	for i := 0; i < maxFinishedJobs+extra; i++ {
		job, err := m.Submit(schoolReq())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids[:extra] {
		if _, err := m.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("job %s is beyond the cap but still pollable: err = %v", id, err)
		}
	}
	for _, id := range []string{ids[extra], ids[len(ids)-1]} {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("job %s is within the cap: %v", id, err)
		}
	}
	m.mu.Lock()
	retained, queued := len(m.jobs), len(m.finished)
	m.mu.Unlock()
	if retained != maxFinishedJobs || queued != maxFinishedJobs {
		t.Errorf("%d jobs retained, %d in the finished queue, want %d of each", retained, queued, maxFinishedJobs)
	}
}

// TestCancelledJobPruned: a cancelled job leaves after the retention window
// like any other finished job (it used to stay forever).
func TestCancelledJobPruned(t *testing.T) {
	clock := newFakeClock()
	stub := &stubEngine{started: make(chan string, 1), release: make(chan struct{})}
	m := newTestManager(t, stub, Config{Workers: 1, JobRetention: time.Minute, now: clock.now})
	defer close(stub.release)
	job, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(job.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("second cancel: err = %v", err)
	}
	if j, err := m.Get(job.ID); err != nil || j.Snapshot().State != StateCancelled {
		t.Fatalf("cancelled job not pollable inside the window: %v", err)
	}
	clock.advance(2 * time.Minute)
	if _, err := m.Get(job.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancelled job survived retention: err = %v", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.jobs) != 0 || len(m.finished) != 0 {
		t.Errorf("%d jobs and %d queue entries left", len(m.jobs), len(m.finished))
	}
}

// oneTenantRegistry builds a registry serving one small coventry engine.
func oneTenantRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Open([]registry.TenantSpec{{Name: "coventry"}}, registry.Options{
		Scale: 0.05, Parallelism: 2, Logger: olog.New(io.Discard, olog.LevelWarn),
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestRetainedResultsAreSlim: what the manager keeps of a real engine run —
// on the job and in the cache entry — has no sampled matrix, only its three
// reported sizes, and they are the run's.
func TestRetainedResultsAreSlim(t *testing.T) {
	reg := oneTenantRegistry(t)
	tn, _ := reg.Get("coventry")
	e := tn.Engine()
	req, err := Request{Category: "school", Model: "OLS", Budget: 0.3, Seed: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Run(req.Query(core.POIsOf(e.City, synth.POISchool)))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Matrix == nil || direct.MatrixStats.Trips != direct.Matrix.Size() ||
		direct.MatrixStats.FullTrips != direct.Matrix.FullSize() || direct.MatrixStats.ReductionPct != direct.Matrix.Reduction() {
		t.Fatalf("library run: matrix %v, stats %+v", direct.Matrix != nil, direct.MatrixStats)
	}
	m := NewManager(RegistryRunner(reg, RunnerConfig{}), Config{Workers: 1})
	defer m.Shutdown(context.Background())
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	ans, ok := m.cache.get(req.Fingerprint(), 0)
	if !ok {
		t.Fatal("run not cached")
	}
	for name, res := range map[string]*core.Result{"job": job.Snapshot().Result, "cache entry": ans.res} {
		if res.Matrix != nil {
			t.Errorf("%s retains the sampled matrix", name)
		}
		if res.MatrixStats != direct.MatrixStats {
			t.Errorf("%s matrix stats %+v, the run's are %+v", name, res.MatrixStats, direct.MatrixStats)
		}
	}
}

// TestEncodedBodyFilledOnce: the miss and every hit on its cache entry see
// one encoding per include_zones value.
func TestEncodedBodyFilledOnce(t *testing.T) {
	m := newTestManager(t, &stubEngine{}, Config{Workers: 1})
	ctx := context.Background()
	miss, err := m.Submit(schoolReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, miss); err != nil {
		t.Fatal(err)
	}
	encodes := 0
	encode := func(zones bool) func() []byte {
		return func() []byte { encodes++; return []byte(fmt.Sprintf(`{"zones":%v}`, zones)) }
	}
	first := miss.Snapshot().Body.Get(false, encode(false))
	for i := 0; i < 3; i++ {
		hit, err := m.Submit(schoolReq())
		if err != nil {
			t.Fatal(err)
		}
		s := hit.Snapshot()
		if !s.CacheHit || s.Body == nil {
			t.Fatalf("hit %d: %+v", i, s)
		}
		if got := s.Body.Get(false, encode(false)); &got[0] != &first[0] {
			t.Errorf("hit %d re-encoded the body", i)
		}
		if got := string(s.Body.Get(true, encode(true))); got != `{"zones":true}` {
			t.Errorf("hit %d with zones: %s", i, got)
		}
	}
	if encodes != 2 {
		t.Errorf("%d encodings for two forms", encodes)
	}
}
