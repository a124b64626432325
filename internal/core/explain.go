package core

import (
	"fmt"
	"io"

	"accessquery/internal/obs"
)

// ExplainReport is the per-query execution report: the headline cost-model
// quantities the paper's Table II decomposes (TODAM reduction, SPQ count,
// per-stage time) plus model convergence and in-sample fit, with the run's
// span tree attached. It is a projection of two records: the run's Result,
// which says what the run did, and its trace, which says where the time
// went.
type ExplainReport struct {
	TraceID string  `json:"trace_id"`
	Seconds float64 `json:"seconds"`

	// Model is the model the run fitted, OLS after a model_fallback rung.
	Model        string `json:"model,omitempty"`
	Zones        int64  `json:"zones,omitempty"`
	LabeledZones int64  `json:"labeled_zones,omitempty"`
	SPQs         int64  `json:"spqs,omitempty"`

	// Degradation-ladder visibility: which rungs fired (empty when the run
	// answered at full fidelity) and the transient-SPQ accounting.
	Degraded       bool   `json:"degraded"`
	DegradedRungs  string `json:"degraded_rungs,omitempty"`
	SPQRetries     int64  `json:"spq_retries,omitempty"`
	SPQAbandoned   int64  `json:"spq_abandoned,omitempty"`
	FailedZones    int64  `json:"failed_zones,omitempty"`
	TruncatedZones int64  `json:"truncated_zones,omitempty"`

	// TODAM size: trips priced against the O(|Z||P||R|) full matrix.
	MatrixTrips        int64   `json:"matrix_trips,omitempty"`
	MatrixFullTrips    int64   `json:"matrix_full_trips,omitempty"`
	MatrixReductionPct float64 `json:"matrix_reduction_pct,omitempty"`

	// Label-bank accounting: trips drained from the cross-query bank
	// versus priced by SPQ (== SPQs), and how many priced trips the run
	// deposited back. BankEnabled distinguishes "no bank attached" from a
	// bank that happened to see zero traffic.
	BankEnabled   bool  `json:"bank_enabled,omitempty"`
	BankDrained   int64 `json:"bank_drained,omitempty"`
	BankDeposited int64 `json:"bank_deposited,omitempty"`

	FeatureCacheHits   int64 `json:"feature_cache_hits"`
	FeatureCacheMisses int64 `json:"feature_cache_misses"`

	TrainingIterations int64   `json:"training_iterations,omitempty"`
	TrainingConverged  bool    `json:"training_converged"`
	InitialLoss        float64 `json:"initial_loss,omitempty"`
	FinalLoss          float64 `json:"final_loss,omitempty"`
	RMSEMAC            float64 `json:"rmse_mac,omitempty"`
	RMSEACSD           float64 `json:"rmse_acsd,omitempty"`
	R2MAC              float64 `json:"r2_mac,omitempty"`
	R2ACSD             float64 `json:"r2_acsd,omitempty"`

	// Scenario carries the delta provenance of a scenario-derived engine
	// (nil when the run executed on a baseline engine).
	Scenario *ScenarioSummary `json:"scenario,omitempty"`

	// Stages are the trace's leaves in execution order (see
	// obs.TraceSummary.Stages).
	Stages []obs.Stage       `json:"stages"`
	Trace  *obs.TraceSummary `json:"trace,omitempty"`
}

// Explain projects a run's execution report from its Result and its trace
// summary. Either may be nil: without a trace the report carries the typed
// fields and no stages; a failed run (nil Result) keeps its partial trace
// and stage rows with zero typed fields. Returns nil when both are nil.
func Explain(res *Result, sum *obs.TraceSummary) *ExplainReport {
	if res == nil && sum == nil {
		return nil
	}
	r := &ExplainReport{}
	if res != nil {
		t := res.Timing
		r.Model = string(res.Model)
		r.Zones = int64(len(res.MAC))
		for _, l := range res.Labeled {
			if l {
				r.LabeledZones++
			}
		}
		r.SPQs, r.SPQRetries, r.SPQAbandoned = t.SPQs, t.SPQRetries, t.SPQAbandoned
		if d := res.Degraded; d != nil {
			r.Degraded, r.DegradedRungs = true, d.String()
			r.FailedZones, r.TruncatedZones = int64(d.ZonesFailed), int64(d.ZonesTruncated)
		}
		m := res.MatrixStats
		r.MatrixTrips, r.MatrixFullTrips, r.MatrixReductionPct = m.Trips, m.FullTrips, m.ReductionPct
		r.BankEnabled, r.BankDrained, r.BankDeposited = res.Bank, t.BankDrained, t.BankDeposited
		r.FeatureCacheHits, r.FeatureCacheMisses = t.FeatureCacheHits, t.FeatureCacheMisses
		f := res.Fit
		r.TrainingIterations, r.TrainingConverged = int64(f.Iterations), f.Converged
		r.InitialLoss, r.FinalLoss = f.InitialLoss, f.FinalLoss
		r.RMSEMAC, r.RMSEACSD, r.R2MAC, r.R2ACSD = f.RMSE[0], f.RMSE[1], f.R2[0], f.R2[1]
		r.Scenario = res.Scenario
	}
	if sum != nil {
		r.TraceID, r.Seconds, r.Trace = sum.TraceID, sum.Seconds, sum
		r.Stages = sum.Stages()
	}
	return r
}

// WriteText renders the report for terminals (the aqquery -explain output).
func (r *ExplainReport) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	fmt.Fprintf(w, "query %s: %.3fs", r.TraceID, r.Seconds)
	if r.Model != "" {
		fmt.Fprintf(w, "  model=%s", r.Model)
	}
	fmt.Fprintln(w)
	if r.MatrixFullTrips > 0 {
		fmt.Fprintf(w, "  todam: %d trips (full %d, %.1f%% reduction)\n",
			r.MatrixTrips, r.MatrixFullTrips, r.MatrixReductionPct)
	}
	if r.Zones > 0 {
		fmt.Fprintf(w, "  labeling: %d/%d zones labeled, %d SPQs\n", r.LabeledZones, r.Zones, r.SPQs)
	}
	if r.BankEnabled {
		fmt.Fprintf(w, "  bank: %d drained, %d priced, %d deposited\n",
			r.BankDrained, r.SPQs, r.BankDeposited)
	}
	if r.SPQRetries > 0 || r.SPQAbandoned > 0 {
		fmt.Fprintf(w, "  spq faults: %d retried, %d abandoned (%d zones failed, %d truncated)\n",
			r.SPQRetries, r.SPQAbandoned, r.FailedZones, r.TruncatedZones)
	}
	if r.Degraded {
		fmt.Fprintf(w, "  degraded: %s\n", r.DegradedRungs)
	}
	fmt.Fprintf(w, "  feature cache: %d hits, %d misses\n", r.FeatureCacheHits, r.FeatureCacheMisses)
	if r.TrainingIterations > 0 {
		fmt.Fprintf(w, "  training: %d iterations, converged=%v, in-sample RMSE mac=%.3f acsd=%.3f, R² mac=%.3f acsd=%.3f\n",
			r.TrainingIterations, r.TrainingConverged, r.RMSEMAC, r.RMSEACSD, r.R2MAC, r.R2ACSD)
	}
	if sc := r.Scenario; sc != nil {
		fmt.Fprintf(w, "  scenario: %d deltas (%d mutations), %d zones touched, %d hop trees rebuilt, rebuild %dms vs full %dms\n",
			sc.Deltas, sc.Mutations, sc.ZonesTouched, sc.TreesRebuilt, sc.RebuildMS, sc.FullPrepMS)
	}
	for _, st := range r.Stages {
		fmt.Fprintf(w, "  %-10s %9.3fms\n", st.Name, st.Seconds*1e3)
	}
}
