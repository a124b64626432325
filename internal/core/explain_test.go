package core

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"accessquery/internal/bank"
	"accessquery/internal/obs"
)

// engineStageNames are the five pipeline stages of one engine run, in
// execution order.
var engineStageNames = []string{"matrix", "sampling", "labeling", "features", "training"}

func stageNames(r *ExplainReport) []string {
	names := make([]string, len(r.Stages))
	for i, st := range r.Stages {
		names[i] = st.Name
	}
	return names
}

// TestExplainFieldMapping runs the test engine twice against one bank
// segment — a cold run that deposits, then a repeat that drains — under a
// trace, and checks that every report field equals its source on the
// Result and that the stage rows are the engine's five stages in order.
func TestExplainFieldMapping(t *testing.T) {
	e := engine(t)
	q := vaxQuery(e, ModelMLP, 0.3)
	q.Bank = bank.New(bank.Config{}).Segment(e.City.Name, 1)
	for _, run := range []string{"cold", "repeat"} {
		tr := obs.NewTrace()
		res, err := e.RunContext(obs.WithTrace(context.Background(), tr), q)
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		sum := tr.Summary()
		r := Explain(res, sum)
		if r == nil {
			t.Fatalf("%s: Explain returned nil", run)
		}
		var labeled int64
		for _, l := range res.Labeled {
			if l {
				labeled++
			}
		}
		if r.LabeledZones != labeled || labeled == 0 || r.Zones != int64(len(res.MAC)) {
			t.Errorf("%s: labeled/zones = %d/%d, want %d/%d", run, r.LabeledZones, r.Zones, labeled, len(res.MAC))
		}
		tm := res.Timing
		if r.SPQs != tm.SPQs || r.SPQRetries != tm.SPQRetries || r.SPQAbandoned != tm.SPQAbandoned {
			t.Errorf("%s: spq fields = %d/%d/%d, want %+v", run, r.SPQs, r.SPQRetries, r.SPQAbandoned, tm)
		}
		m := res.MatrixStats
		if r.MatrixTrips != m.Trips || r.MatrixFullTrips != m.FullTrips || r.MatrixReductionPct != m.ReductionPct || m.Trips == 0 {
			t.Errorf("%s: matrix fields = %d/%d/%.2f, want %+v", run, r.MatrixTrips, r.MatrixFullTrips, r.MatrixReductionPct, m)
		}
		if !r.BankEnabled || r.BankDrained != tm.BankDrained || r.BankDeposited != tm.BankDeposited {
			t.Errorf("%s: bank fields = %v/%d/%d, want true/%d/%d", run, r.BankEnabled, r.BankDrained, r.BankDeposited, tm.BankDrained, tm.BankDeposited)
		}
		if r.FeatureCacheHits != tm.FeatureCacheHits || r.FeatureCacheMisses != tm.FeatureCacheMisses {
			t.Errorf("%s: cache fields = %d/%d, want %d/%d", run, r.FeatureCacheHits, r.FeatureCacheMisses, tm.FeatureCacheHits, tm.FeatureCacheMisses)
		}
		f := res.Fit
		if r.Model != string(res.Model) || res.Model != ModelMLP {
			t.Errorf("%s: model = %q, result %q, want MLP", run, r.Model, res.Model)
		}
		if r.TrainingIterations != int64(f.Iterations) || r.TrainingConverged != f.Converged || f.Iterations == 0 {
			t.Errorf("%s: training fields = %d/%v, want %+v", run, r.TrainingIterations, r.TrainingConverged, f.TrainInfo)
		}
		if r.InitialLoss != f.InitialLoss || r.FinalLoss != f.FinalLoss || r.FinalLoss == 0 {
			t.Errorf("%s: loss fields = %v/%v, want %v/%v", run, r.InitialLoss, r.FinalLoss, f.InitialLoss, f.FinalLoss)
		}
		if r.RMSEMAC != f.RMSE[0] || r.RMSEACSD != f.RMSE[1] || r.R2MAC != f.R2[0] || r.R2ACSD != f.R2[1] || f.RMSE[0] == 0 {
			t.Errorf("%s: fit fields = %v/%v/%v/%v, want %+v", run, r.RMSEMAC, r.RMSEACSD, r.R2MAC, r.R2ACSD, f)
		}
		if r.Degraded || r.Scenario != nil {
			t.Errorf("%s: degraded/scenario = %v/%+v on a full-fidelity baseline run", run, r.Degraded, r.Scenario)
		}
		if r.Trace != sum || r.TraceID != sum.TraceID || r.Seconds != sum.Seconds {
			t.Errorf("%s: report must carry the trace, its ID and its span", run)
		}
		if got := stageNames(r); !slices.Equal(got, engineStageNames) {
			t.Errorf("%s: stages = %v, want %v (execution order)", run, got, engineStageNames)
		}
		switch run {
		case "cold":
			if r.SPQs == 0 || r.BankDeposited == 0 {
				t.Errorf("cold: spqs/deposited = %d/%d, want both > 0", r.SPQs, r.BankDeposited)
			}
		case "repeat":
			if r.BankDrained == 0 {
				t.Error("repeat: drained nothing from the bank the cold run filled")
			}
		}
	}
}

// TestTracedRunStageLeaves guards the trace's single-owner contract: with
// labeling and features fanned out over worker pools, a traced run still
// records only the query span and its five stages, all on the calling
// goroutine, so the summary's leaves are exactly the stages in order.
func TestTracedRunStageLeaves(t *testing.T) {
	e := engine(t)
	q := vaxQuery(e, ModelOLS, 0.3)
	q.Workers, q.Parallelism = 4, 4
	tr := obs.NewTrace()
	if _, err := e.RunContext(obs.WithTrace(context.Background(), tr), q); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	var got []string
	for _, st := range sum.Stages() {
		got = append(got, st.Name)
	}
	if !slices.Equal(got, engineStageNames) {
		t.Errorf("stage leaves = %v, want %v", got, engineStageNames)
	}
	if len(sum.Spans) != 1 || sum.Spans[0].Name != "query" || len(sum.Spans[0].Children) != len(engineStageNames) {
		t.Errorf("tree = %+v, want one query span over the five stages", sum.Spans)
	}
}

// TestExplainTolerates covers the three partial shapes: a run without a
// trace, a failed job with a trace but no Result, and neither.
func TestExplainTolerates(t *testing.T) {
	res := &Result{
		MAC:     make([]float64, 3),
		Labeled: []bool{true, false, true},
		Timing:  Timing{SPQs: 7},
		Model:   ModelOLS,
	}
	r := Explain(res, nil)
	if r == nil || r.LabeledZones != 2 || r.Zones != 3 || r.SPQs != 7 || r.Model != "OLS" {
		t.Fatalf("traceless report = %+v", r)
	}
	if r.Stages != nil || r.Trace != nil || r.TraceID != "" {
		t.Errorf("traceless report has trace parts: %+v", r)
	}

	// A failed job keeps only its partial trace: the stages that did run,
	// with every typed field zero.
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	_, sp := obs.Start(ctx, "matrix", nil)
	sp.End()
	sum := tr.Summary()
	r = Explain(nil, sum)
	if r == nil || r.Trace != sum || r.TraceID == "" {
		t.Fatalf("failed-job report = %+v", r)
	}
	if len(r.Stages) != 1 || r.Stages[0].Name != "matrix" {
		t.Errorf("failed-job stages = %+v", r.Stages)
	}
	if r.Model != "" || r.SPQs != 0 || r.MatrixTrips != 0 || r.TrainingConverged {
		t.Errorf("failed-job report has typed fields: %+v", r)
	}

	if Explain(nil, nil) != nil {
		t.Error("Explain(nil, nil) should be nil")
	}
}

// TestExplainModelFallback is the regression test for a report that named
// the requested model next to the fallback's fit: after a model_fallback
// rung the report names the model that was fitted.
func TestExplainModelFallback(t *testing.T) {
	d := &DegradedReport{ModelRequested: string(ModelMLP), ModelUsed: string(ModelOLS)}
	d.fire(RungModelFallback, "MLP failed; refitting with OLS")
	res := &Result{
		MAC:      make([]float64, 4),
		Labeled:  []bool{true, true, false, false},
		Model:    ModelOLS,
		Degraded: d,
	}
	res.Fit.Iterations, res.Fit.Converged = 1, true
	r := Explain(res, nil)
	if r.Model != "OLS" {
		t.Errorf("model = %q, want OLS (the fitted model)", r.Model)
	}
	if !r.Degraded || !strings.Contains(r.DegradedRungs, string(RungModelFallback)) {
		t.Errorf("degraded/rungs = %v/%q, want the model_fallback rung", r.Degraded, r.DegradedRungs)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"model":"OLS"`) {
		t.Errorf("wire report does not name OLS: %s", b)
	}
	var out strings.Builder
	r.WriteText(&out)
	if !strings.Contains(out.String(), "model=OLS") || strings.Contains(out.String(), "model=MLP") {
		t.Errorf("WriteText names the wrong model:\n%s", out.String())
	}
}

func TestExplainWriteText(t *testing.T) {
	res := &Result{
		MAC:         make([]float64, 50),
		Labeled:     make([]bool, 50),
		MatrixStats: MatrixStats{Trips: 1200, FullTrips: 6000, ReductionPct: 80},
		Timing:      Timing{SPQs: 10, FeatureCacheHits: 40, FeatureCacheMisses: 10},
		Model:       ModelMLP,
	}
	for i := 0; i < 10; i++ {
		res.Labeled[i] = true
	}
	res.Fit.Iterations, res.Fit.Converged = 200, true
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	ctx, job := obs.Start(ctx, "job", nil)
	obs.RecordSpan(ctx, "queue_wait", 0)
	qctx, query := obs.Start(ctx, "query", nil)
	for _, name := range engineStageNames {
		_, sp := obs.Start(qctx, name, nil)
		sp.End()
	}
	query.End()
	job.End()

	var b strings.Builder
	Explain(res, tr.Summary()).WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"model=MLP",
		"todam: 1200 trips (full 6000, 80.0% reduction)",
		"labeling: 10/50 zones labeled, 10 SPQs",
		"feature cache: 40 hits, 10 misses",
		"training: 200 iterations, converged=true",
		"queue_wait", "matrix", "sampling", "features",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
	var nilReport *ExplainReport
	nilReport.WriteText(&b) // must not panic
}
