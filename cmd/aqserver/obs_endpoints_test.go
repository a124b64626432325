package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"accessquery/internal/obs/account"
	"accessquery/internal/obs/capture"
	"accessquery/internal/obs/olog"
	"accessquery/internal/obs/slo"
	"accessquery/internal/serve"
)

func obsTestServer(t *testing.T, cfg serve.Config) *server {
	t.Helper()
	s := newServer(sharedRegistry(t), cfg, serve.RunnerConfig{})
	t.Cleanup(func() { shutdownServer(t, s) })
	return s
}

func shutdownServer(t *testing.T, s *server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.mgr.Shutdown(ctx)
}

func mustSLO(t *testing.T, spec string) *slo.Engine {
	t.Helper()
	p, err := slo.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return slo.New(p)
}

// TestHandleSLODisabled pins the no-config contract: 200 with
// enabled:false and an empty tenant list, never a 404.
func TestHandleSLODisabled(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/v1/slo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Enabled bool              `json:"enabled"`
		Tenants []json.RawMessage `json:"tenants"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Enabled || body.Tenants == nil || len(body.Tenants) != 0 {
		t.Errorf("disabled /v1/slo = %+v, want enabled:false with empty tenants", body)
	}
}

// TestHandleSLOReportsTraffic runs one query through an SLO-tracked server
// and checks the tenant report reflects it.
func TestHandleSLOReportsTraffic(t *testing.T) {
	s := obsTestServer(t, serve.Config{
		Workers: 2, SLO: mustSLO(t, "p99=24h,avail=99.9"), BurnTripThreshold: 14.4,
	})
	rec := postQuery(s, "/v1/query", `{"category": "school", "budget": 0.2, "model": "OLS", "seed": 7001}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(s, http.MethodGet, "/v1/slo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("slo status %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Enabled  bool    `json:"enabled"`
		BurnTrip float64 `json:"burn_trip_threshold"`
		Tenants  []struct {
			City    string `json:"city"`
			Windows []struct {
				Window string `json:"window"`
				Total  int64  `json:"total"`
			} `json:"windows"`
			FastBurn float64 `json:"fast_burn"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Enabled || body.BurnTrip != 14.4 {
		t.Errorf("header = enabled %v trip %v", body.Enabled, body.BurnTrip)
	}
	if len(body.Tenants) != 1 || body.Tenants[0].City != "coventry" {
		t.Fatalf("tenants = %+v", body.Tenants)
	}
	tn := body.Tenants[0]
	if len(tn.Windows) != 3 || tn.Windows[0].Total < 1 {
		t.Errorf("windows = %+v, want 3 windows counting the query", tn.Windows)
	}
	if tn.FastBurn != 0 {
		t.Errorf("fast_burn = %v for a successful in-target query", tn.FastBurn)
	}
}

// TestHandleJobProfile walks the capture retrieval path end to end: an
// async query over the slow-query threshold leaves a capture fetchable at
// /v1/jobs/{id}/profile.
func TestHandleJobProfile(t *testing.T) {
	store, err := capture.NewStore(capture.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := obsTestServer(t, serve.Config{
		Workers: 2, SlowQueryThreshold: time.Nanosecond, Captures: store,
		// Discard the slow-query line every run writes at a 1ns threshold.
		Logger: olog.New(io.Discard, olog.LevelWarn),
	})
	rec := postQuery(s, "/v1/query?async=1", `{"category": "school", "budget": 0.2, "model": "OLS", "seed": 7002}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec = do(s, http.MethodGet, "/v1/jobs/"+accepted.JobID+"/profile", "")
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("profile still %d after deadline: %s", rec.Code, rec.Body.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	var c capture.Capture
	if err := json.NewDecoder(rec.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Reason != capture.ReasonSlowQuery || c.City != "coventry" {
		t.Errorf("capture = reason %q city %q", c.Reason, c.City)
	}
	if c.Goroutines == "" || c.TraceID == "" {
		t.Errorf("capture evidence missing: goroutines %d bytes, trace %q", len(c.Goroutines), c.TraceID)
	}

	// Unknown job: 404 with the error envelope.
	rec = do(s, http.MethodGet, "/v1/jobs/j99999999/profile", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job profile status %d", rec.Code)
	}
}

// TestHandleJobProfileDisabled pins the -captures 0 path.
func TestHandleJobProfileDisabled(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/v1/jobs/j00000001/profile", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("disabled profile status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestHandleStatsCost checks the /v1/stats cost block: per-tenant
// attribution appears once cost accounting is on and traffic has flowed.
func TestHandleStatsCost(t *testing.T) {
	s := obsTestServer(t, serve.Config{Workers: 2, Accountant: account.New()})
	rec := postQuery(s, "/v1/query", `{"category": "school", "budget": 0.2, "model": "OLS", "seed": 7003}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(s, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var body struct {
		Cost []account.TenantCost `json:"cost"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Cost) != 1 || body.Cost[0].City != "coventry" {
		t.Fatalf("cost = %+v", body.Cost)
	}
	tc := body.Cost[0]
	if tc.Jobs != 1 || tc.WallSeconds <= 0 {
		t.Errorf("cost attribution = %+v", tc)
	}
	if len(tc.StageSeconds) == 0 {
		t.Error("cost block missing the per-stage matrix")
	}
}
