package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/fault"
	"accessquery/internal/synth"
)

// TestBankParallelMatchesUnbanked pins the tentpole's correctness contract:
// a bank-enabled run must be deep-equal to a bank-disabled run — cold or
// warm, serial or 4-worker labeling. The bank stores journeys and the
// labeler re-prices them through the SPQ code path, so any divergence here
// means a price was cached instead of a journey.
func TestBankParallelMatchesUnbanked(t *testing.T) {
	e := equalityEngine(t, 2)
	q := Query{
		POIs:           POIsOf(e.City, synth.POISchool),
		Budget:         0.2,
		Model:          ModelOLS,
		SamplesPerHour: 8,
		Seed:           7,
	}
	for _, workers := range []int{1, 4} {
		qq := q
		qq.Workers = workers
		plain, err := e.Run(qq)
		if err != nil {
			t.Fatal(err)
		}
		bk := bank.New(bank.Config{})
		seg := bk.Segment(e.City.Name, 1)
		qb := qq
		qb.Bank = seg
		cold, err := e.Run(qb)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, plain, cold, fmt.Sprintf("workers=%d cold bank", workers))
		warm, err := e.Run(qb)
		if err != nil {
			t.Fatal(err)
		}
		// sameResult checks SPQs too, but a warm run answers from the bank;
		// compare everything else and pin the SPQ saving separately.
		warm.Timing.SPQs = plain.Timing.SPQs
		sameResult(t, plain, warm, fmt.Sprintf("workers=%d warm bank", workers))
		if segs := bk.Stats().Segments; len(segs) != 1 || segs[0].City != e.City.Name || segs[0].Epoch != 1 {
			t.Errorf("bank segments = %+v, want one {%s 1}", segs, e.City.Name)
		}
	}
}

// TestBankWarmRepeatAndOverlapSavesSPQs is the perf acceptance criterion:
// an exact repeat answers (nearly) entirely from the bank, and a
// higher-budget overlapping query — whose random labeled set is a superset
// of the warm one, both being prefixes of the same seeded permutation —
// prices at least 2x fewer trips than it would cold.
func TestBankWarmRepeatAndOverlapSavesSPQs(t *testing.T) {
	e := engine(t)
	seg := bank.New(bank.Config{}).Segment(e.City.Name, 1)
	run := func(budget float64) *Result {
		t.Helper()
		q := vaxQuery(e, ModelOLS, budget)
		q.Bank = seg
		res, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(0.15)
	if cold.Timing.SPQs == 0 {
		t.Fatal("cold run priced nothing")
	}
	repeat := run(0.15)
	if repeat.Timing.SPQs != 0 {
		t.Errorf("exact repeat priced %d SPQs, want 0 (all drained)", repeat.Timing.SPQs)
	}
	overlap := run(0.3)
	// The overlap run's cold cost is what it priced plus what it drained.
	drained := overlap.Timing.BankDrained
	coldCost := overlap.Timing.SPQs + drained
	if drained == 0 {
		t.Fatal("overlap run drained nothing from a warm bank")
	}
	if overlap.Timing.SPQs*2 > coldCost {
		t.Errorf("overlap run priced %d of %d trips, want at least 2x fewer SPQs",
			overlap.Timing.SPQs, coldCost)
	}
}

// TestBankDeadlineMidZoneNoDeposit pins the deposit policy under deadline
// pressure: a run truncated mid-labeling must not deposit its partial
// drain into the bank (partially labeled zones would otherwise poison
// later queries with a half-priced pool), while the degradation ladder
// still reports the effective budget actually achieved.
func TestBankDeadlineMidZoneNoDeposit(t *testing.T) {
	e := engine(t)
	slowSPQs(t, 50*time.Millisecond)
	b := bank.New(bank.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	q := vaxQuery(e, ModelMLP, 0.3)
	q.Bank = b.Segment(e.City.Name, 1)
	res, err := e.RunContext(ctx, q)
	if err != nil {
		t.Fatalf("mid-labeling deadline failed the run instead of degrading: %v", err)
	}
	if res.Degraded == nil || !res.Degraded.Has(RungPartial) {
		t.Fatalf("rungs = %v, want partial", res.Degraded)
	}
	st := b.Stats()
	if st.Deposits != 0 || st.Entries != 0 {
		t.Errorf("truncated run deposited %d entries (%d deposits), want none",
			st.Entries, st.Deposits)
	}
	labeled := 0
	for _, l := range res.Labeled {
		if l {
			labeled++
		}
	}
	want := float64(labeled) / float64(len(res.Labeled))
	if got := res.Degraded.BudgetEffective; got != want {
		t.Errorf("BudgetEffective = %g, want labeled share %g", got, want)
	}
	if res.Degraded.BudgetEffective > res.Degraded.BudgetRequested {
		t.Errorf("effective budget %g above requested %g",
			res.Degraded.BudgetEffective, res.Degraded.BudgetRequested)
	}
}

// TestChaosWarmBankAccounting extends the chaos accounting identity to the
// warm-bank labeling path: after a clean run warms the segment, a faulty
// higher-budget run must still reconcile retries + abandons against the
// injector exactly — drained trips never mask or double-count a fault —
// and a fault-degraded run must not deposit.
func TestChaosWarmBankAccounting(t *testing.T) {
	e := engine(t)
	prev := fault.Enable(nil)
	t.Cleanup(func() { fault.Enable(prev) })

	b := bank.New(bank.Config{})
	seg := b.Segment(e.City.Name, 1)
	warmQ := vaxQuery(e, ModelOLS, 0.15)
	warmQ.Bank = seg
	if _, err := e.RunContext(context.Background(), warmQ); err != nil {
		t.Fatal(err)
	}
	warmed := b.Stats().Entries
	if warmed == 0 {
		t.Fatal("clean warm run deposited nothing")
	}

	for name, workers := range map[string]int{"serial": 1, "parallel": 4} {
		spec, err := fault.ParseSpec("seed=11;spq:fail=0.2")
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.New(spec)
		fault.Enable(inj)
		before := b.Stats().Entries
		q := vaxQuery(e, ModelOLS, 0.3)
		q.Bank = seg
		q.Workers = workers
		res, err := e.RunContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: warm-bank chaos run failed instead of degrading: %v", name, err)
		}
		if res.Timing.BankDrained == 0 {
			t.Errorf("%s: chaos run on a warm bank drained nothing", name)
		}
		injected := inj.Counts()[fault.SiteSPQ]
		if got := res.Timing.SPQRetries + res.Timing.SPQAbandoned; got != injected {
			t.Errorf("%s: %d faults injected but %d retried + %d abandoned",
				name, injected, res.Timing.SPQRetries, res.Timing.SPQAbandoned)
		}
		if d := res.Degraded; d != nil && (d.ZonesFailed > 0 || d.ZonesTruncated > 0) {
			if after := b.Stats().Entries; after != before {
				t.Errorf("%s: fault-degraded run changed the bank (%d -> %d entries)",
					name, before, after)
			}
		}
	}
	fault.Enable(nil)
}
