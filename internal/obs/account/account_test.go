package account

import (
	"sync"
	"testing"
	"time"

	"accessquery/internal/obs"
)

func TestBillRollsUpPerTenant(t *testing.T) {
	a := New()
	rec := a.Ensure("coventry")
	rec.Bill(Bill{
		Wall:      250 * time.Millisecond,
		QueueWait: 50 * time.Millisecond,
		Stages: []obs.Stage{
			{Name: "matrix", Seconds: 0.1},
			{Name: "labeling", Seconds: 0.15},
		},
		SPQs:        42,
		BankDrained: 7,
	})
	rec.Bill(Bill{Wall: 100 * time.Millisecond, Failed: true})
	a.Ensure("leeds").Bill(Bill{Wall: time.Millisecond})
	a.Ensure("coventry").Bill(Bill{CacheHit: true})
	a.RecordBuild("leeds", 2*time.Second)

	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot() has %d tenants, want 2", len(snap))
	}
	cov, leeds := snap[0], snap[1]
	if cov.City != "coventry" || leeds.City != "leeds" {
		t.Fatalf("snapshot order = %q, %q; want coventry, leeds", cov.City, leeds.City)
	}
	if cov.Jobs != 2 || cov.Failures != 1 || cov.CacheHits != 1 {
		t.Errorf("coventry jobs/failures/cacheHits = %d/%d/%d, want 2/1/1", cov.Jobs, cov.Failures, cov.CacheHits)
	}
	if cov.SPQs != 42 || cov.BankDrained != 7 {
		t.Errorf("coventry spqs/bank = %d/%d, want 42/7", cov.SPQs, cov.BankDrained)
	}
	if got := cov.WallSeconds; got < 0.349 || got > 0.351 {
		t.Errorf("coventry wall = %g, want 0.35", got)
	}
	if got := cov.StageSeconds["matrix"]; got != 0.1 {
		t.Errorf("coventry stage matrix = %g, want 0.1", got)
	}
	if got := cov.QueueWaitSeconds; got != 0.05 {
		t.Errorf("coventry queue wait = %g, want 0.05 (a cache hit adds none)", got)
	}
	if leeds.Builds != 1 || leeds.BuildSeconds != 2 {
		t.Errorf("leeds builds/buildSeconds = %d/%g, want 1/2", leeds.Builds, leeds.BuildSeconds)
	}
}

// A nil accountant must be a complete no-op: the disabled serving path
// leans on this (see the serve-layer zero-alloc test).
func TestNilAccountant(t *testing.T) {
	var a *Accountant
	if tn := a.Ensure("x"); tn != nil {
		t.Fatalf("nil Ensure = %v, want nil", tn)
	}
	a.Ensure("x").Bill(Bill{Wall: time.Second})
	a.Ensure("x").Bill(Bill{CacheHit: true})
	a.RecordBuild("x", time.Second)
	if snap := a.Snapshot(); snap != nil {
		t.Errorf("nil Snapshot = %v, want nil", snap)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	var a *Accountant
	allocs := testing.AllocsPerRun(100, func() {
		a.Ensure("coventry").Bill(Bill{})
		a.Ensure("coventry").Bill(Bill{CacheHit: true})
	})
	if allocs != 0 {
		t.Errorf("disabled accountant allocates %.1f per run, want 0", allocs)
	}
}

// TestConcurrentBilling bills one city from several goroutines while they
// also look its record up, record builds and take snapshots: the record's
// one mutex must keep every count (run under -race).
func TestConcurrentBilling(t *testing.T) {
	a := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				a.Ensure("coventry").Bill(Bill{Wall: time.Millisecond, Stages: []obs.Stage{{Name: "matrix", Seconds: 0.001}}})
				a.Ensure("coventry").Bill(Bill{CacheHit: true})
				a.RecordBuild("coventry", time.Millisecond)
				a.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := a.Snapshot()
	if len(snap) != 1 || snap[0].Jobs != 800 || snap[0].CacheHits != 800 || snap[0].Builds != 800 {
		t.Errorf("snapshot = %+v, want one tenant with 800 jobs, hits and builds", snap)
	}
}
