package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/gtfs"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
	"accessquery/internal/synth"
)

// The test engine is expensive to pre-process, so every test shares one
// read-only instance; each test gets its own serve.Manager on top of it.
var (
	engineOnce sync.Once
	testEngine *core.Engine
	engineErr  error
)

func sharedEngine(t *testing.T) *core.Engine {
	t.Helper()
	engineOnce.Do(func() {
		var city *synth.City
		city, engineErr = synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
		if engineErr != nil {
			return
		}
		testEngine, engineErr = core.NewEngine(city, core.EngineOptions{
			Interval: gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday},
		})
	})
	if engineErr != nil {
		t.Fatal(engineErr)
	}
	return testEngine
}

// sharedRegistry wraps the shared engine in a one-tenant registry (via a
// snapshot round-trip, the same path production uses). Like the engine it
// is shared and read-only; swap tests build their own registries.
var (
	registryOnce sync.Once
	testRegistry *registry.Registry
	registryErr  error
)

func sharedRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	e := sharedEngine(t)
	registryOnce.Do(func() {
		// Not t.TempDir: the snapshot must outlive the first test that
		// builds it.
		dir, err := os.MkdirTemp("", "aqserver-test-*")
		if err != nil {
			registryErr = err
			return
		}
		path := filepath.Join(dir, "coventry.snap")
		if registryErr = e.SaveSnapshot(path); registryErr != nil {
			return
		}
		testRegistry, registryErr = registry.Open(
			[]registry.TenantSpec{{Name: "coventry", Path: path}}, registry.Options{})
	})
	if registryErr != nil {
		t.Fatal(registryErr)
	}
	return testRegistry
}

func testServer(t *testing.T) *server {
	t.Helper()
	s := newServer(sharedRegistry(t), serve.Config{Workers: 2}, serve.RunnerConfig{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.mgr.Shutdown(ctx)
	})
	return s
}

// do routes a request through the full handler stack (method enforcement,
// content-type checks, metrics), as a client would.
func do(s *server, method, target, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	return rec
}

func postQuery(s *server, target, body string) *httptest.ResponseRecorder {
	return do(s, http.MethodPost, target, body)
}

func TestHandleHealth(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]string
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body %v", body)
	}
}

func TestHandleCities(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/v1/cities", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Default string `json:"default"`
		Cities  []struct {
			Name  string  `json:"name"`
			Epoch uint64  `json:"epoch"`
			Zones float64 `json:"zones"`
			Stops float64 `json:"stops"`
		} `json:"cities"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Default != "coventry" || len(body.Cities) != 1 {
		t.Fatalf("body %+v", body)
	}
	c := body.Cities[0]
	if c.Name != "coventry" || c.Epoch == 0 {
		t.Errorf("city %+v", c)
	}
	if c.Zones != float64(len(sharedEngine(t).City.Zones)) {
		t.Errorf("zones = %v", c.Zones)
	}
	if c.Stops <= 0 {
		t.Error("no stops reported")
	}

	// Per-tenant detail, including the POI catalogue.
	rec = do(s, http.MethodGet, "/v1/cities/coventry", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("detail status %d: %s", rec.Code, rec.Body.String())
	}
	var detail map[string]interface{}
	if err := json.NewDecoder(rec.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if detail["name"] != "coventry" || detail["pois"] == nil {
		t.Errorf("detail %v", detail)
	}
	// Unknown tenants 404 with the stable error code.
	rec = do(s, http.MethodGet, "/v1/cities/atlantis", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown city status %d", rec.Code)
	}
	if env := decodeError(t, rec); env.Error.Code != "unknown_city" {
		t.Errorf("unknown city error code %q", env.Error.Code)
	}
}

func TestHandleZones(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/v1/zones", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var zones []synth.Zone
	if err := json.NewDecoder(rec.Body).Decode(&zones); err != nil {
		t.Fatal(err)
	}
	if len(zones) != len(sharedEngine(t).City.Zones) {
		t.Errorf("got %d zones", len(zones))
	}
}

func TestHandleJourney(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/v1/journey?from=0&to=5&depart=08:00:00", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var body map[string]interface{}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["minutes"].(float64) < 0 {
		t.Errorf("negative journey: %v", body)
	}
	legs, ok := body["legs"].([]interface{})
	if !ok {
		t.Fatalf("legs missing: %v", body)
	}
	for _, l := range legs {
		leg := l.(map[string]interface{})
		if leg["mode"] != "walk" && leg["mode"] != "ride" {
			t.Errorf("bad leg mode %v", leg["mode"])
		}
	}
}

func TestHandleJourneyErrors(t *testing.T) {
	s := testServer(t)
	cases := []string{
		"/v1/journey?from=abc&to=1",    // malformed from
		"/v1/journey?to=1",             // missing from
		"/v1/journey?from=0&to=xyz",    // malformed to
		"/v1/journey?from=-1&to=1",     // negative zone index
		"/v1/journey?from=0&to=999999", // zone index out of range
		"/v1/journey?from=0&to=1&depart=notatime",
		"/v1/journey?from=0&to=1&depart=25:99",
	}
	for _, url := range cases {
		rec := do(s, http.MethodGet, url, "")
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
		if env := decodeError(t, rec); env.Error.Code != "bad_request" {
			t.Errorf("%s: error code %q, want bad_request", url, env.Error.Code)
		}
	}
}

func TestHandleQuery(t *testing.T) {
	s := testServer(t)
	body := `{"category": "school", "cost": "JT", "budget": 0.2, "model": "OLS", "include_zones": true}`
	rec := postQuery(s, "/v1/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]interface{}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp["fairness"].(float64) <= 0 {
		t.Errorf("fairness = %v", resp["fairness"])
	}
	if resp["spqs"].(float64) <= 0 {
		t.Errorf("spqs = %v", resp["spqs"])
	}
	zones, ok := resp["zones"].([]interface{})
	if !ok || len(zones) == 0 {
		t.Error("include_zones did not return zones")
	}

	// An identical repeat is served from the cache: same answer, one run.
	rec = postQuery(s, "/v1/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", rec.Code, rec.Body.String())
	}
	st := s.mgr.Stats()
	if st.CacheHits != 1 {
		t.Errorf("stats.CacheHits = %d, want 1", st.CacheHits)
	}
}

func TestHandleQueryErrors(t *testing.T) {
	s := testServer(t)
	badBodies := []struct {
		name, body, wantMsg string
	}{
		{"bad JSON", "{", "bad JSON"},
		{"missing category", `{}`, "category"},
		{"unknown category", `{"category": "casinos"}`, "category"},
		{"budget above one", `{"category": "school", "budget": 7}`, "budget"},
		{"negative budget", `{"category": "school", "budget": -0.5}`, "budget"},
		{"unknown model", `{"category": "school", "model": "XGBOOST"}`, "model"},
		{"unknown cost", `{"category": "school", "cost": "MILES"}`, "cost"},
		{"unknown field", `{"category":"school","sampling":"coverage"}`, `unknown field "sampling"`},
	}
	for _, c := range badBodies {
		rec := postQuery(s, "/v1/query", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, rec.Code, rec.Body.String())
		}
		env := decodeError(t, rec)
		if env.Error.Code != "bad_request" {
			t.Errorf("%s: error code %q", c.name, env.Error.Code)
		}
		if !strings.Contains(env.Error.Message, c.wantMsg) {
			t.Errorf("%s: message %q does not mention %q", c.name, env.Error.Message, c.wantMsg)
		}
	}
}

func TestHandleQueryAsync(t *testing.T) {
	s := testServer(t)
	rec := postQuery(s, "/v1/query?async=1", `{"category": "school", "budget": 0.2, "model": "OLS", "seed": 42}`)
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
	if accepted.JobID == "" || accepted.StatusURL != "/v1/jobs/"+accepted.JobID {
		t.Fatalf("accepted body: %+v", accepted)
	}

	// Poll until the job completes, as a client would.
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := do(s, http.MethodGet, accepted.StatusURL+"?include_zones=1", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("poll status %d: %s", rec.Code, rec.Body.String())
		}
		var status struct {
			State  string                 `json:"state"`
			Error  string                 `json:"error"`
			Result map[string]interface{} `json:"result"`
			Stages []struct {
				Name    string  `json:"name"`
				Seconds float64 `json:"seconds"`
			} `json:"stages"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		switch status.State {
		case "done":
			if status.Result["fairness"].(float64) <= 0 {
				t.Errorf("result %v", status.Result)
			}
			if _, ok := status.Result["zones"]; !ok {
				t.Error("include_zones=1 poll did not return zones")
			}
			// The run's stage breakdown (queue wait + the Table II stages)
			// rides along with the finished job.
			names := map[string]bool{}
			for _, st := range status.Stages {
				names[st.Name] = true
			}
			for _, want := range []string{"queue_wait", "matrix", "labeling", "features", "training"} {
				if !names[want] {
					t.Errorf("job stages missing %q: %+v", want, status.Stages)
				}
			}
			return
		case "failed":
			t.Fatalf("job failed: %s", status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after deadline", status.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestHandleJobErrors(t *testing.T) {
	s := testServer(t)
	// Unknown job.
	rec := do(s, http.MethodGet, "/v1/jobs/j99999999", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job status %d", rec.Code)
	}
	if env := decodeError(t, rec); env.Error.Code != "not_found" {
		t.Errorf("unknown job error code %q", env.Error.Code)
	}
	// Missing ID: the path names no resource.
	rec = do(s, http.MethodGet, "/v1/jobs/", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing id status %d", rec.Code)
	}
	// POST not allowed.
	rec = do(s, http.MethodPost, "/v1/jobs/j00000001", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d", rec.Code)
	}
}

// TestHandleQueryQueueFull exercises the 429 path with a stub manager: one
// busy worker, a one-slot queue, and a third distinct query arriving.
func TestHandleQueryQueueFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	run := func(ctx context.Context, req serve.Request) (*core.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &core.Result{}, nil
	}
	s := &server{
		reg: sharedRegistry(t),
		mgr: serve.NewManager(run, serve.Config{Workers: 1, QueueDepth: 1}),
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.mgr.Shutdown(ctx)
	})

	for i := 0; i < 2; i++ {
		rec := postQuery(s, "/v1/query?async=1", fmt.Sprintf(`{"category": "school", "seed": %d}`, i))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("fill %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if i == 0 {
			<-started // ensure the worker, not the queue, holds job 0
		}
	}
	rec := postQuery(s, "/v1/query?async=1", `{"category": "school", "seed": 2}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if env := decodeError(t, rec); env.Error.Code != "queue_full" {
		t.Errorf("429 error code %q, want queue_full", env.Error.Code)
	}
}

func TestHandleStats(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var st serve.Stats
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
}

// TestRoutes checks the mux wiring end to end over httptest, including the
// /v1/jobs/{id} path pattern.
func TestRoutes(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/j00000042")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/jobs/{unknown} status %d", resp.StatusCode)
	}
}
