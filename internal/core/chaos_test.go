package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"accessquery/internal/fault"
)

// Severity returns the worst fired rung's rank; 0 for a nil or empty
// report. Chaos tests assert this is monotone in the injected fault rate.
func (d *DegradedReport) Severity() int {
	if d == nil {
		return 0
	}
	worst := 0
	for _, r := range d.Rungs {
		if s := r.Severity(); s > worst {
			worst = s
		}
	}
	return worst
}

// TestChaosSPQFaultRates runs the full engine under seeded SPQ fault
// injection at the issue's three rates, asserting that every run answers
// without error, that results stay structurally valid, that transient-
// failure accounting reconciles exactly against the injector, and that
// degradation reporting is monotone in the fault rate (the injector's
// monotone coupling makes higher rates strict supersets of lower ones).
func TestChaosSPQFaultRates(t *testing.T) {
	e := engine(t)
	prev := fault.Enable(nil)
	t.Cleanup(func() { fault.Enable(prev) })

	rates := []float64{0.01, 0.05, 0.2}
	severities := make([]int, len(rates))
	for i, rate := range rates {
		spec, err := fault.ParseSpec(fmt.Sprintf("seed=11;spq:fail=%g", rate))
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.New(spec)
		fault.Enable(inj)
		res, err := e.RunContext(context.Background(), vaxQuery(e, ModelOLS, 0.3))
		fault.Enable(nil)
		if err != nil {
			t.Fatalf("rate %g: run failed instead of degrading: %v", rate, err)
		}
		nz := len(e.zonePts)
		if len(res.MAC) != nz || len(res.ACSD) != nz || len(res.Valid) != nz || len(res.Labeled) != nz {
			t.Fatalf("rate %g: malformed result", rate)
		}
		for z, lab := range res.Labeled {
			if lab && !res.Valid[z] {
				t.Errorf("rate %g: zone %d labeled but not valid", rate, z)
			}
		}
		injected := inj.Counts()[fault.SiteSPQ]
		if got := res.Timing.SPQRetries + res.Timing.SPQAbandoned; got != injected {
			t.Errorf("rate %g: %d faults injected but %d retried + %d abandoned",
				rate, injected, res.Timing.SPQRetries, res.Timing.SPQAbandoned)
		}
		if d := res.Degraded; d != nil {
			if len(d.Rungs) == 0 || len(d.Rungs) != len(d.Reasons) {
				t.Errorf("rate %g: degraded report without matched rungs/reasons: %+v", rate, d)
			}
			if d.ZonesFailed == 0 && d.ZonesTruncated == 0 && !d.Has(RungModelFallback) {
				t.Errorf("rate %g: degraded without any lost zones: %+v", rate, d)
			}
			if d.BudgetEffective > d.BudgetRequested {
				t.Errorf("rate %g: effective budget %g above requested %g",
					rate, d.BudgetEffective, d.BudgetRequested)
			}
		}
		severities[i] = res.Degraded.Severity()
	}
	for i := 1; i < len(severities); i++ {
		if severities[i] < severities[i-1] {
			t.Errorf("degradation severity not monotone across rates %v: %v", rates, severities)
		}
	}
}

// TestChaosParallelLabeling repeats the highest-pressure chaos run with a
// worker pool, pinning that the parallel path also absorbs transient
// failures (rather than aborting the run) and keeps the accounting
// identity.
func TestChaosParallelLabeling(t *testing.T) {
	e := engine(t)
	spec, err := fault.ParseSpec("seed=11;spq:fail=0.2")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(spec)
	prev := fault.Enable(inj)
	t.Cleanup(func() { fault.Enable(prev) })

	q := vaxQuery(e, ModelOLS, 0.3)
	q.Workers = 4
	res, err := e.RunContext(context.Background(), q)
	if err != nil {
		t.Fatalf("parallel chaos run failed instead of degrading: %v", err)
	}
	if got := res.Timing.SPQRetries + res.Timing.SPQAbandoned; got != inj.Counts()[fault.SiteSPQ] {
		t.Errorf("%d faults injected but %d retried + %d abandoned",
			inj.Counts()[fault.SiteSPQ], res.Timing.SPQRetries, res.Timing.SPQAbandoned)
	}
}

// TestDeadlineMidLabelingPartial is the acceptance criterion: a query
// whose deadline expires mid-labeling answers with a partial, labeled-only
// result within deadline + 10%.
func TestDeadlineMidLabelingPartial(t *testing.T) {
	e := engine(t)
	// 50ms per profile search makes even one zone cost ~a second: the
	// deadline is guaranteed to expire inside the first zones.
	slowSPQs(t, 50*time.Millisecond)
	const deadline = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := e.RunContext(ctx, vaxQuery(e, ModelMLP, 0.3))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("mid-labeling deadline failed the run instead of degrading: %v", err)
	}
	if res.Degraded == nil || !res.Degraded.Has(RungPartial) {
		t.Fatalf("rungs = %v, want partial", res.Degraded)
	}
	if elapsed > deadline+deadline/10 {
		t.Errorf("partial answer took %v, over deadline %v + 10%%", elapsed, deadline)
	}
	for z := range res.Valid {
		if res.Valid[z] && !res.Labeled[z] {
			t.Errorf("zone %d carries an inferred value in a partial result", z)
		}
	}
}

// TestDegradedModelFallback checks that an unknown model is rejected
// rather than absorbed by the model_fallback rung: that is a caller
// mistake, not infrastructure trouble, so the run fails fast.
func TestDegradedModelFallback(t *testing.T) {
	e := engine(t)
	if _, err := e.Run(vaxQuery(e, ModelKind("XGBOOST"), 0.3)); err == nil {
		t.Error("unknown model should fail, not fall back")
	}
}
