package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"accessquery/internal/access"
	"accessquery/internal/fault"
)

// resultDigest hashes every answer-bearing field of a result: the per-zone
// measures, validity and labeling, classes, the summary scalars, the matrix
// summary and the SPQ count. Wall-clock timings are left out.
func resultDigest(res *Result) string {
	h := sha256.New()
	f64 := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	i64 := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	for _, v := range res.MAC {
		f64(v)
	}
	for _, v := range res.ACSD {
		f64(v)
	}
	bools := func(bs []bool) {
		for _, b := range bs {
			if b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	bools(res.Valid)
	bools(res.Labeled)
	for _, c := range res.Classes {
		i64(int64(c))
	}
	f64(res.Fairness)
	f64(res.WalkOnlyShare)
	i64(res.MatrixStats.Trips)
	i64(res.MatrixStats.FullTrips)
	f64(res.MatrixStats.ReductionPct)
	i64(res.Timing.SPQs)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPipelineOutputsUnchanged pins the answers of every pipeline entry
// point on the core test city. The digests were recorded before the four
// entry points were rebuilt on one shared stage pipeline; any drift in a
// measure, a class, the matrix or the SPQ count changes them.
func TestPipelineOutputsUnchanged(t *testing.T) {
	e := engine(t)
	want := map[string]string{
		"Run/JT/OLS":          "b23bfaeac33086ba8306330e3c1cf6d5d877be9fc46ad37dad99250d20270636",
		"Run/JT/MLP":          "48915a5ddbd791746bbd3fd75322c891582f0668c7f60782309631984c7d4acc",
		"Run/GAC/OLS":         "384017711785dd27a506df5848279aed4dd6d4e335b8cca15a9e89aa8e0cc675",
		"Run/GAC/MLP":         "eb2ecd53be9ae8a14fca425617be2fe43bdd0da6650d8393e5191143716b3ea3",
		"GroundTruth/JT/OLS":  "7d6a090e7a9ef040c89f059f9e0531b1842142b6e08cb692c4b9d5794b73abde",
		"GroundTruth/JT/MLP":  "7d6a090e7a9ef040c89f059f9e0531b1842142b6e08cb692c4b9d5794b73abde",
		"GroundTruth/GAC/OLS": "8fa94532b0f3488be49ea6a5e08f042ff48484cdb9fd65ab212535b8329de4bb",
		"GroundTruth/GAC/MLP": "8fa94532b0f3488be49ea6a5e08f042ff48484cdb9fd65ab212535b8329de4bb",
		"RunOD/JT/OLS":        "09b376e582dd93751b0a548723dea17aca3381627f614b0b3d3dbca92306be08",
		"RunOD/JT/MLP":        "b37f8ae4337fed3e1c91eb56dcbb0ebbffa91355abf683ad4e30ae5c4d18f814",
		"RunOD/GAC/OLS":       "3463f8fed5a46b0bcde5a739d9e93f12f9fbec686c3c82739def781a97dba61d",
		"RunOD/GAC/MLP":       "f3ad36f69bbd5fb8cb1cc149d122d0692e055bd8b342e58e030d5cc60b0b4280",
	}
	entries := []struct {
		name string
		run  func(Query) (*Result, error)
	}{
		{"Run", e.Run},
		{"GroundTruth", e.GroundTruth},
		{"RunOD", e.RunOD},
	}
	for _, entry := range entries {
		for _, cost := range []access.CostKind{access.JourneyTime, access.Generalized} {
			for _, model := range []ModelKind{ModelOLS, ModelMLP} {
				name := fmt.Sprintf("%s/%s/%s", entry.name, cost, model)
				q := vaxQuery(e, model, 0.3)
				q.Cost = cost
				res, err := entry.run(q)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if got := resultDigest(res); got != want[name] {
					t.Errorf("%s: digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
	_, _, odRows, err := e.FeatureCosts(vaxQuery(e, ModelOLS, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if wantRows := 202; odRows != wantRows {
		t.Errorf("FeatureCosts: %d OD rows, want %d", odRows, wantRows)
	}
}

// TestRunODWorkersEquivalent checks that OD-level labeling fanned across
// workers answers exactly like the serial run.
func TestRunODWorkersEquivalent(t *testing.T) {
	e := engine(t)
	var results [2]*Result
	for i, workers := range []int{1, 4} {
		q := vaxQuery(e, ModelOLS, 0.3)
		q.Workers = workers
		res, err := e.RunOD(q)
		if err != nil {
			t.Fatal(err)
		}
		res.Timing.Matrix, res.Timing.Labeling, res.Timing.Features, res.Timing.Training = 0, 0, 0, 0
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("RunOD results differ between Workers 1 and 4")
	}
}

// TestSPQMetricsCountEveryEntryPoint checks that the process-wide SPQ
// counters move by exactly what each entry point reports in its Timing,
// including a run whose labeling fails.
func TestSPQMetricsCountEveryEntryPoint(t *testing.T) {
	e := engine(t)
	counters := func() [3]int64 {
		return [3]int64{mSPQs.Value(), mSPQRetries.Value(), mSPQAbandoned.Value()}
	}
	since := func(before [3]int64) [3]int64 {
		now := counters()
		return [3]int64{now[0] - before[0], now[1] - before[1], now[2] - before[2]}
	}
	check := func(name string, run func() (*Result, error)) {
		t.Helper()
		before := counters()
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := [3]int64{res.Timing.SPQs, res.Timing.SPQRetries, res.Timing.SPQAbandoned}
		if got := since(before); got != want || want[0] == 0 {
			t.Errorf("%s: counter deltas (spqs, retries, abandoned) = %v, want %v (non-zero SPQs)", name, got, want)
		}
	}
	q := vaxQuery(e, ModelOLS, 0.3)
	check("Run", func() (*Result, error) { return e.Run(q) })
	check("GroundTruth", func() (*Result, error) { return e.GroundTruth(q) })
	check("RunOD", func() (*Result, error) { return e.RunOD(q) })

	// A labeling stage that errors still counts the SPQs it priced: the
	// query is cancelled from inside labeling once zones are under way, and
	// the stage's Timing, set on the error path too, carries the count the
	// counters must match.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bad := q
	bad.Bank = &cancellingBank{after: 200, cancel: cancel}
	r := e.newRun(bad)
	defer r.release()
	if err := r.matrix(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.sample(ctx); err != nil {
		t.Fatal(err)
	}
	before := counters()
	if err := r.label(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled labeling: err = %v, want context.Canceled", err)
	}
	tm := r.res.Timing
	want := [3]int64{tm.SPQs, tm.SPQRetries, tm.SPQAbandoned}
	if got := since(before); got != want || want[0] == 0 {
		t.Errorf("cancelled labeling: counter deltas = %v, want %v (non-zero SPQs)", got, want)
	}

	// Under injected SPQ faults the retry and abandon counters move too,
	// and OD labeling now retries like the zone-level run.
	spec, err := fault.ParseSpec("seed=11;spq:fail=0.05")
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Enable(fault.New(spec))
	t.Cleanup(func() { fault.Enable(prev) })
	check("Run under faults", func() (*Result, error) { return e.Run(q) })
	check("GroundTruth under faults", func() (*Result, error) { return e.GroundTruth(q) })
	check("RunOD under faults", func() (*Result, error) {
		res, err := e.RunOD(q)
		if err == nil && res.Timing.SPQRetries == 0 {
			t.Error("RunOD under faults retried nothing")
		}
		return res, err
	})
}

// cancellingBank misses every lookup and cancels the query after a fixed
// number of them, failing labeling part-way through.
type cancellingBank struct {
	after  int
	cancel context.CancelFunc
}

func (b *cancellingBank) Drain(access.TripKey) (access.TripPrice, bool) {
	if b.after--; b.after == 0 {
		b.cancel()
	}
	return access.TripPrice{}, false
}

func (b *cancellingBank) Deposit([]access.TripDeposit) {}
