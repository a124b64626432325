package registry

import (
	"errors"
	"testing"

	"accessquery/internal/delta"
)

func closeFirstRoute(t *testing.T, r *Registry) []delta.Mutation {
	t.Helper()
	tn, _ := r.Get("coventry")
	engine, _, release := tn.Acquire()
	defer release()
	return []delta.Mutation{{Kind: delta.CloseRoute, Route: string(engine.City.Feed.Routes[0].ID)}}
}

// TestApplyScenarioStacksAndReverts exercises the registry-level scenario
// lifecycle: each batch installs a new epoch over a pinned baseline, and
// revert reinstalls the baseline engine under a fresh epoch.
func TestApplyScenarioStacksAndReverts(t *testing.T) {
	r := openTwoTenants(t)
	tn, _ := r.Get("coventry")
	baselineEngine, _, release := tn.Acquire()
	release()

	info, applied, retired, err := tn.ApplyScenario(closeFirstRoute(t, r))
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 || applied.ID != 1 || applied.Epoch != 2 || retired == nil {
		t.Fatalf("apply: info=%+v applied=%+v", info, applied)
	}
	if applied.BlastRadius.TreesRebuilt <= 0 {
		t.Fatalf("blast radius %+v", applied.BlastRadius)
	}
	st := tn.Scenario()
	if !st.Active || st.BaselineEpoch != 1 || len(st.Deltas) != 1 {
		t.Fatalf("status %+v", st)
	}

	info, retired, err = tn.RevertScenario()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 3 || retired == nil || retired.Epoch != 2 {
		t.Fatalf("revert: info=%+v retired=%+v", info, retired)
	}
	engine, _, release := tn.Acquire()
	if engine != baselineEngine {
		t.Error("revert should reinstall the pinned baseline engine")
	}
	release()
	if _, _, err := tn.RevertScenario(); !errors.Is(err, ErrNoScenario) {
		t.Fatalf("double revert: %v", err)
	}
}

// TestNonScenarioSwapClearsScenario: a snapshot swap invalidates
// the pinned baseline, so the scenario state must be discarded.
func TestNonScenarioSwapClearsScenario(t *testing.T) {
	r := openTwoTenants(t)
	tn, _ := r.Get("coventry")
	if _, _, _, err := tn.ApplyScenario(closeFirstRoute(t, r)); err != nil {
		t.Fatal(err)
	}
	if !tn.Scenario().Active {
		t.Fatal("scenario should be active")
	}
	if _, _, err := tn.SwapSnapshot(""); err != nil {
		t.Fatal(err)
	}
	if st := tn.Scenario(); st.Active {
		t.Fatalf("scenario survived a non-scenario swap: %+v", st)
	}
	if _, _, err := tn.RevertScenario(); !errors.Is(err, ErrNoScenario) {
		t.Fatalf("revert after swap: %v", err)
	}
}

// TestApplyScenarioRejectsInvalidBatch: a bad mutation leaves the epoch
// and scenario state untouched.
func TestApplyScenarioRejectsInvalidBatch(t *testing.T) {
	r := openTwoTenants(t)
	tn, _ := r.Get("coventry")
	if _, _, _, err := tn.ApplyScenario([]delta.Mutation{{Kind: delta.CloseRoute, Route: "RT_NOPE"}}); err == nil {
		t.Fatal("expected a validation error")
	}
	if tn.Epoch() != 1 || tn.Scenario().Active {
		t.Fatalf("rejected batch moved state: epoch=%d scenario=%+v", tn.Epoch(), tn.Scenario())
	}
}
