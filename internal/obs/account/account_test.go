package account

import (
	"testing"
	"time"

	"accessquery/internal/obs"
)

func TestBillRollsUpPerTenant(t *testing.T) {
	a := New()
	a.Bill("coventry", Bill{
		Wall:      250 * time.Millisecond,
		QueueWait: 50 * time.Millisecond,
		Stages: []obs.Stage{
			{Name: "matrix", Seconds: 0.1},
			{Name: "labeling", Seconds: 0.15},
		},
		SPQs:        42,
		BankDrained: 7,
	})
	a.Bill("coventry", Bill{Wall: 100 * time.Millisecond, Failed: true})
	a.Bill("leeds", Bill{Wall: time.Millisecond})
	a.Bill("coventry", Bill{CacheHit: true})
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
	a.Bill("x", Bill{Wall: time.Second})
	a.Bill("x", Bill{CacheHit: true})
	a.RecordBuild("x", time.Second)
	if snap := a.Snapshot(); snap != nil {
		t.Errorf("nil Snapshot = %v, want nil", snap)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	var a *Accountant
	allocs := testing.AllocsPerRun(100, func() {
		a.Bill("coventry", Bill{})
		a.Bill("coventry", Bill{CacheHit: true})
	})
	if allocs != 0 {
		t.Errorf("disabled accountant allocates %.1f per run, want 0", allocs)
	}
}
