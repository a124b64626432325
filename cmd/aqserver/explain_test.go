package main

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// engineStages are the five pipeline stages of one query run, the unit of
// the paper's Table II cost decomposition.
var engineStages = []string{"matrix", "sampling", "labeling", "features", "training"}

// TestHandleQueryExplain is the golden test for the ?explain=1 response
// shape: the sync query answer grows an "explain" object carrying the
// cost-model quantities and the per-stage breakdown.
func TestHandleQueryExplain(t *testing.T) {
	s := testServer(t)
	body := `{"category": "school", "budget": 0.2, "model": "OLS", "seed": 7}`
	rec := postQuery(s, "/v1/query?explain=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Fairness float64 `json:"fairness"`
		Explain  *struct {
			TraceID            string  `json:"trace_id"`
			Seconds            float64 `json:"seconds"`
			Model              string  `json:"model"`
			Zones              int64   `json:"zones"`
			LabeledZones       int64   `json:"labeled_zones"`
			SPQs               int64   `json:"spqs"`
			MatrixTrips        int64   `json:"matrix_trips"`
			MatrixFullTrips    int64   `json:"matrix_full_trips"`
			MatrixReductionPct float64 `json:"matrix_reduction_pct"`
			FeatureCacheHits   int64   `json:"feature_cache_hits"`
			FeatureCacheMisses int64   `json:"feature_cache_misses"`
			TrainingConverged  bool    `json:"training_converged"`
			Stages             []struct {
				Name    string  `json:"name"`
				Seconds float64 `json:"seconds"`
			} `json:"stages"`
			Trace *struct {
				TraceID string            `json:"trace_id"`
				Spans   []json.RawMessage `json:"spans"`
			} `json:"trace"`
		} `json:"explain"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fairness <= 0 {
		t.Errorf("fairness = %v", resp.Fairness)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("?explain=1 response has no explain object")
	}
	if ex.TraceID == "" || ex.Seconds <= 0 {
		t.Errorf("trace_id/seconds = %q/%v", ex.TraceID, ex.Seconds)
	}
	if ex.Model != "OLS" {
		t.Errorf("model = %q, want OLS", ex.Model)
	}
	if ex.Zones <= 0 || ex.LabeledZones <= 0 || ex.SPQs <= 0 {
		t.Errorf("zones/labeled/spqs = %d/%d/%d, want all > 0", ex.Zones, ex.LabeledZones, ex.SPQs)
	}
	// The budgeted run prices a strict subset of the full TODAM.
	if ex.MatrixTrips <= 0 || ex.MatrixFullTrips <= ex.MatrixTrips {
		t.Errorf("matrix trips = %d of %d, want 0 < trips < full", ex.MatrixTrips, ex.MatrixFullTrips)
	}
	if ex.MatrixReductionPct <= 0 || ex.MatrixReductionPct >= 100 {
		t.Errorf("reduction = %.1f%%, want in (0, 100)", ex.MatrixReductionPct)
	}
	// The shared test engine's extractor may already be warm (other tests
	// run first), so assert activity rather than misses specifically.
	if ex.FeatureCacheHits+ex.FeatureCacheMisses <= 0 {
		t.Errorf("feature cache hits+misses = %d+%d, want activity",
			ex.FeatureCacheHits, ex.FeatureCacheMisses)
	}
	if !ex.TrainingConverged {
		t.Error("OLS on a solvable system should report training_converged")
	}
	stageNames := map[string]bool{}
	for _, st := range ex.Stages {
		stageNames[st.Name] = true
	}
	for _, want := range engineStages {
		if !stageNames[want] {
			t.Errorf("explain stages missing %q: have %v", want, stageNames)
		}
	}
	if ex.Trace == nil || len(ex.Trace.Spans) == 0 {
		t.Error("explain carries no span tree")
	}

	// Without the flag, the response must stay unchanged (no explain key).
	rec = postQuery(s, "/v1/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat status %d", rec.Code)
	}
	var plain map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["explain"]; ok {
		t.Error("explain object present without ?explain=1")
	}

	// A cache hit with ?explain=1 reuses the producing run's trace.
	rec = postQuery(s, "/v1/query?explain=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("cached status %d", rec.Code)
	}
	var cached struct {
		Explain *struct {
			TraceID string `json:"trace_id"`
		} `json:"explain"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	if cached.Explain == nil || cached.Explain.TraceID != ex.TraceID {
		t.Errorf("cache-hit explain = %+v, want trace %s", cached.Explain, ex.TraceID)
	}
}

// TestHandleJobTrace is the golden test for GET /v1/jobs/{id}/trace: an
// async job's execution report, the same one ?explain=1 inlines, with the
// run's numbers as typed fields and its span tree, in the job → query →
// stages hierarchy, under trace.
func TestHandleJobTrace(t *testing.T) {
	s := testServer(t)
	rec := postQuery(s, "/v1/query?async=1", `{"category": "school", "budget": 0.2, "model": "OLS", "seed": 3}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var accepted struct {
		JobID     string `json:"job_id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		rec = do(s, http.MethodGet, accepted.StatusURL, "")
		var status struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		if status.State == "done" {
			break
		}
		if status.State == "failed" {
			t.Fatalf("job failed: %s", status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after deadline", status.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	rec = do(s, http.MethodGet, accepted.StatusURL+"/trace", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace status %d: %s", rec.Code, rec.Body.String())
	}
	type node struct {
		Name     string  `json:"name"`
		Seconds  float64 `json:"seconds"`
		Children []*node `json:"children"`
	}
	var rep struct {
		TraceID            string  `json:"trace_id"`
		MatrixReductionPct float64 `json:"matrix_reduction_pct"`
		SPQs               int64   `json:"spqs"`
		TrainingConverged  *bool   `json:"training_converged"`
		Trace              *struct {
			TraceID string  `json:"trace_id"`
			Seconds float64 `json:"seconds"`
			Spans   []*node `json:"spans"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	tr := rep.Trace
	if tr == nil || tr.TraceID == "" || tr.TraceID != rep.TraceID || len(tr.Spans) == 0 {
		t.Fatalf("empty span tree: %+v", tr)
	}
	if tr.Spans[0].Name != "job" {
		t.Fatalf("root span = %q, want job", tr.Spans[0].Name)
	}
	var query *node
	for _, c := range tr.Spans[0].Children {
		if c.Name == "query" {
			query = c
		}
	}
	if query == nil {
		t.Fatalf("job has no query child: %+v", tr.Spans[0].Children)
	}
	got := map[string]*node{}
	for _, c := range query.Children {
		got[c.Name] = c
	}
	for _, want := range engineStages {
		if got[want] == nil {
			t.Errorf("query span missing stage %q", want)
		}
	}
	if rep.MatrixReductionPct <= 0 {
		t.Errorf("matrix_reduction_pct = %v", rep.MatrixReductionPct)
	}
	if rep.SPQs <= 0 {
		t.Errorf("spqs = %v", rep.SPQs)
	}
	if rep.TrainingConverged == nil {
		t.Error("report has no training_converged")
	}

	// Unknown job IDs 404 on the trace route too.
	rec = do(s, http.MethodGet, "/v1/jobs/j99999999/trace", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job trace status %d", rec.Code)
	}
}
