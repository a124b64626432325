package registry

import (
	"path/filepath"
	"testing"

	"accessquery/internal/access"
	"accessquery/internal/bank"
	"accessquery/internal/delta"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/router"
)

// openBanked builds a one-tenant registry wired to a label bank, handing
// out the shared prebuilt coventry engine via a snapshot.
func openBanked(t *testing.T) (*Registry, *bank.Bank) {
	t.Helper()
	a, _ := sharedEngines(t)
	snapPath := filepath.Join(t.TempDir(), "cov.snap")
	if err := a.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	b := bank.New(bank.Config{})
	r, err := Open([]TenantSpec{{Name: "coventry", Path: snapPath}}, Options{Bank: b})
	if err != nil {
		t.Fatal(err)
	}
	return r, b
}

func bankDeposit(zone int) []access.TripDeposit {
	return []access.TripDeposit{{
		Key:   access.TripKey{Zone: zone, Dest: graph.NodeID(1), Start: gtfs.Seconds(0)},
		Price: access.TripPrice{Journey: router.Journey{Arrive: 100}, Reachable: true},
	}}
}

// TestBankSwapRetiresSegments pins the zero-stale-prices invariant across
// hot-swaps: installing a new epoch retires the tenant's old segment, so
// no entry priced on the old engine can ever answer a query on the new
// one — and a late Segment() call for the old epoch (an in-flight run
// that acquired just before the swap) cannot resurrect it.
func TestBankSwapRetiresSegments(t *testing.T) {
	r, b := openBanked(t)
	tn, _ := r.Get("coventry")
	old := b.Segment("coventry", tn.Epoch())
	old.Deposit(bankDeposit(0))
	if b.Stats().Entries != 1 {
		t.Fatal("warm deposit did not land")
	}

	if _, _, err := tn.SwapSnapshot(""); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Entries != 0 || st.Retired != 1 {
		t.Fatalf("after swap: %d entries, %d retired; want 0 and 1", st.Entries, st.Retired)
	}
	for _, s := range st.Segments {
		if s.Epoch < tn.Epoch() {
			t.Errorf("stale segment %+v survived the swap", s)
		}
	}
	// The new epoch starts cold.
	if _, ok := b.Segment("coventry", tn.Epoch()).Drain(bankDeposit(0)[0].Key); ok {
		t.Error("new epoch drained a price from the retired generation")
	}
	// A straggler resolving the old epoch gets a detached segment.
	b.Segment("coventry", tn.Epoch()-1).Deposit(bankDeposit(5))
	if got := b.Stats().Entries; got != 0 {
		t.Errorf("straggler deposit resurrected a retired epoch: %d entries", got)
	}
}

// TestBankScenarioTransitDropsCity: a transit-touching batch invalidates
// the tenant's whole segment — blast-radius zones do not bound journey
// changes, so nothing carries forward.
func TestBankScenarioTransitDropsCity(t *testing.T) {
	r, b := openBanked(t)
	tn, _ := r.Get("coventry")
	b.Segment("coventry", tn.Epoch()).Deposit(bankDeposit(0))

	if _, _, _, err := tn.ApplyScenario(closeFirstRoute(t, r)); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Entries != 0 || st.Seeded != 0 {
		t.Fatalf("transit apply: %d entries, %d seeded; want both 0", st.Entries, st.Seeded)
	}
	if _, ok := b.Segment("coventry", tn.Epoch()).Drain(bankDeposit(0)[0].Key); ok {
		t.Error("price survived a transit mutation")
	}
}

// TestBankScenarioNonTransitSeedsForward: a POI/weight-only batch derives
// an engine that shares the baseline's router, so every cached journey is
// still exact — the old segment seeds the new epoch instead of dropping.
func TestBankScenarioNonTransitSeedsForward(t *testing.T) {
	r, b := openBanked(t)
	tn, _ := r.Get("coventry")
	oldEpoch := tn.Epoch()
	b.Segment("coventry", oldEpoch).Deposit(bankDeposit(0))

	batch := []delta.Mutation{{Kind: delta.ScaleZoneWeight, Zone: 0, Factor: 1.5}}
	if _, _, _, err := tn.ApplyScenario(batch); err != nil {
		t.Fatal(err)
	}
	if tn.Epoch() == oldEpoch {
		t.Fatal("apply did not install a new epoch")
	}
	st := b.Stats()
	if st.Seeded != 1 || st.Entries != 1 {
		t.Fatalf("non-transit apply: %d seeded, %d entries; want 1 and 1", st.Seeded, st.Entries)
	}
	p, ok := b.Segment("coventry", tn.Epoch()).Drain(bankDeposit(0)[0].Key)
	if !ok || p.Journey.Arrive != 100 {
		t.Fatalf("seeded entry not drainable in the new epoch: %+v, %v", p, ok)
	}

	// Revert reinstalls the baseline as a fresh epoch: the seeded segment
	// retires with everything else, because the revert target is a new
	// generation even though the engine object is the pinned baseline.
	if _, _, err := tn.RevertScenario(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Entries; got != 0 {
		t.Errorf("revert left %d live entries, want 0", got)
	}
}

// TestBankImpactOf pins the seed/drop classification the scenario path
// keys off.
func TestBankImpactOf(t *testing.T) {
	poiOnly := []delta.Mutation{
		{Kind: delta.ScaleZoneWeight, Zone: 0, Factor: 2},
		{Kind: delta.ReweightPOI, Category: "school", POI: 0, Factor: 0.5},
	}
	if imp := delta.BankImpactOf(poiOnly); !imp.SeedForward || imp.TransitMutations != 0 {
		t.Errorf("POI-only batch = %+v, want seed-forward", imp)
	}
	mixed := append(poiOnly, delta.Mutation{Kind: delta.CloseRoute, Route: "RT1"})
	if imp := delta.BankImpactOf(mixed); imp.SeedForward || imp.TransitMutations != 1 {
		t.Errorf("mixed batch = %+v, want drop with 1 transit mutation", imp)
	}
}
