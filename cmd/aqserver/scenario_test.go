package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"accessquery/internal/serve"
)

// scenarioResponse is the slice of the scenario endpoints' bodies these
// tests care about.
type scenarioResponse struct {
	City struct {
		Epoch  uint64 `json:"epoch"`
		Source string `json:"source"`
	} `json:"city"`
	Delta struct {
		ID          int    `json:"id"`
		Epoch       uint64 `json:"epoch"`
		BlastRadius struct {
			ZonesTouched  int   `json:"zones_touched"`
			TreesRebuilt  int   `json:"hop_trees_rebuilt"`
			TreesTotal    int   `json:"hop_trees_total"`
			StopsAffected int   `json:"stops_affected"`
			RouterRebuilt bool  `json:"router_rebuilt"`
			RebuildMS     int64 `json:"rebuild_ms"`
		} `json:"blast_radius"`
	} `json:"delta"`
	RetiredEpoch uint64 `json:"retired_epoch"`
}

type scenarioStatusBody struct {
	City          string `json:"city"`
	Active        bool   `json:"active"`
	Epoch         uint64 `json:"epoch"`
	BaselineEpoch uint64 `json:"baseline_epoch"`
	Deltas        []struct {
		ID    int    `json:"id"`
		Epoch uint64 `json:"epoch"`
	} `json:"deltas"`
}

// TestScenarioLifecycle drives the full POST → GET → DELETE cycle of
// /v1/cities/{name}/scenario: each applied batch installs a new epoch with
// its blast radius in the response, GET lists the applied deltas, and
// DELETE reverts to the pinned baseline as a fresh epoch.
func TestScenarioLifecycle(t *testing.T) {
	s, reg := multiCityServer(t, serve.Config{Workers: 2})
	tn, _ := reg.Get("coventry")
	engine, _, release := tn.Acquire()
	route := string(engine.City.Feed.Routes[0].ID)
	zones := len(engine.City.Zones)
	release()

	// Inactive scenario reads as such.
	rec := do(s, http.MethodGet, "/v1/cities/coventry/scenario", "")
	var st scenarioStatusBody
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || st.Active || st.Epoch != 1 {
		t.Fatalf("initial status %d: %+v", rec.Code, st)
	}

	// Delta 1: close a route. Created resource, new epoch, blast radius.
	rec = do(s, http.MethodPost, "/v1/cities/coventry/scenario",
		fmt.Sprintf(`{"mutations": [{"kind": "close_route", "route": %q}]}`, route))
	if rec.Code != http.StatusCreated {
		t.Fatalf("apply status %d: %s", rec.Code, rec.Body.String())
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/cities/coventry/scenario" {
		t.Fatalf("Location = %q", loc)
	}
	var apply scenarioResponse
	if err := json.NewDecoder(rec.Body).Decode(&apply); err != nil {
		t.Fatal(err)
	}
	br := apply.Delta.BlastRadius
	switch {
	case apply.Delta.ID != 1 || apply.Delta.Epoch != 2 || apply.City.Epoch != 2:
		t.Fatalf("apply provenance: %+v", apply)
	case br.TreesTotal != 2*zones:
		t.Fatalf("trees total %d, want %d", br.TreesTotal, 2*zones)
	case br.ZonesTouched <= 0 || br.TreesRebuilt != 2*br.ZonesTouched:
		t.Fatalf("blast radius %+v", br)
	case br.StopsAffected <= 0 || !br.RouterRebuilt:
		t.Fatalf("blast radius %+v", br)
	}

	// Queries serve from the scenario epoch.
	q := postQueryResp(t, s, "/v1/query", `{"category": "school", "seed": 61}`)
	if q.Cache.Epoch != 2 {
		t.Fatalf("query epoch %d, want 2", q.Cache.Epoch)
	}

	// Delta 2 stacks on the first (a query-time-only POI reweight).
	rec = do(s, http.MethodPost, "/v1/cities/coventry/scenario",
		`{"mutations": [{"kind": "reweight_poi", "category": "school", "poi": 0, "factor": 0.5}]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("apply 2 status %d: %s", rec.Code, rec.Body.String())
	}
	apply = scenarioResponse{}
	if err := json.NewDecoder(rec.Body).Decode(&apply); err != nil {
		t.Fatal(err)
	}
	if apply.Delta.ID != 2 || apply.Delta.Epoch != 3 || apply.Delta.BlastRadius.TreesRebuilt != 0 {
		t.Fatalf("apply 2: %+v", apply)
	}

	// GET lists both deltas against the pinned baseline.
	rec = do(s, http.MethodGet, "/v1/cities/coventry/scenario", "")
	st = scenarioStatusBody{}
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Active || st.BaselineEpoch != 1 || st.Epoch != 3 || len(st.Deltas) != 2 {
		t.Fatalf("status after 2 deltas: %+v", st)
	}

	// DELETE reverts to the baseline as a fresh epoch.
	rec = do(s, http.MethodDelete, "/v1/cities/coventry/scenario", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("revert status %d: %s", rec.Code, rec.Body.String())
	}
	var revert scenarioResponse
	if err := json.NewDecoder(rec.Body).Decode(&revert); err != nil {
		t.Fatal(err)
	}
	if revert.City.Epoch != 4 || revert.RetiredEpoch != 3 {
		t.Fatalf("revert: %+v", revert)
	}
	rec = do(s, http.MethodGet, "/v1/cities/coventry/scenario", "")
	st = scenarioStatusBody{}
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Active || len(st.Deltas) != 0 {
		t.Fatalf("status after revert: %+v", st)
	}

	// A second DELETE has nothing to revert.
	rec = do(s, http.MethodDelete, "/v1/cities/coventry/scenario", "")
	if rec.Code != http.StatusNotFound || decodeError(t, rec).Error.Code != codeNotFound {
		t.Fatalf("double revert status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestScenarioRejections: invalid batches are refused without disturbing
// the serving epoch.
func TestScenarioRejections(t *testing.T) {
	s, reg := multiCityServer(t, serve.Config{Workers: 2})

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown route", `{"mutations": [{"kind": "close_route", "route": "RT_NOPE"}]}`,
			http.StatusUnprocessableEntity, codeBadMutation},
		{"bad factor", `{"mutations": [{"kind": "scale_headway", "route": "RT_X1", "factor": 0}]}`,
			http.StatusUnprocessableEntity, codeBadMutation},
		{"unknown kind", `{"mutations": [{"kind": "teleport"}]}`,
			http.StatusUnprocessableEntity, codeBadMutation},
		{"empty batch", `{"mutations": []}`, http.StatusBadRequest, codeBadRequest},
		{"bad json", `{`, http.StatusBadRequest, codeBadRequest},
	}
	for _, tc := range cases {
		rec := do(s, http.MethodPost, "/v1/cities/coventry/scenario", tc.body)
		if rec.Code != tc.status || decodeError(t, rec).Error.Code != tc.code {
			t.Errorf("%s: status %d body %s", tc.name, rec.Code, rec.Body.String())
		}
	}

	// Unknown sub-resources miss; the epoch never moved.
	rec := do(s, http.MethodGet, "/v1/cities/coventry/nope", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown sub-resource status %d", rec.Code)
	}
	tn, _ := reg.Get("coventry")
	if tn.Epoch() != 1 {
		t.Errorf("epoch moved to %d on rejected mutations", tn.Epoch())
	}
}

// TestExplainScenarioBlock checks the explain report's scenario block: a
// query on a scenario-derived engine reports the batch's blast radius, and
// a query after the revert reports no scenario at all.
func TestExplainScenarioBlock(t *testing.T) {
	s, reg := multiCityServer(t, serve.Config{Workers: 2})
	tn, _ := reg.Get("coventry")
	engine, _, release := tn.Acquire()
	route := string(engine.City.Feed.Routes[0].ID)
	release()

	rec := do(s, http.MethodPost, "/v1/cities/coventry/scenario",
		fmt.Sprintf(`{"mutations": [{"kind": "close_route", "route": %q}]}`, route))
	if rec.Code != http.StatusCreated {
		t.Fatalf("apply status %d: %s", rec.Code, rec.Body.String())
	}
	var apply scenarioResponse
	if err := json.NewDecoder(rec.Body).Decode(&apply); err != nil {
		t.Fatal(err)
	}
	br := apply.Delta.BlastRadius

	explain := func(seed int) map[string]json.RawMessage {
		t.Helper()
		rec := postQuery(s, "/v1/query?explain=1",
			fmt.Sprintf(`{"category": "school", "model": "OLS", "seed": %d}`, seed))
		if rec.Code != http.StatusOK {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
		}
		var resp struct {
			Explain map[string]json.RawMessage `json:"explain"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Explain == nil {
			t.Fatal("?explain=1 response has no explain object")
		}
		return resp.Explain
	}

	raw, ok := explain(71)["scenario"]
	if !ok {
		t.Fatal("explain on a scenario engine has no scenario block")
	}
	var sc struct {
		Deltas       int `json:"deltas"`
		ZonesTouched int `json:"zones_touched"`
		TreesRebuilt int `json:"hop_trees_rebuilt"`
	}
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Deltas != 1 || sc.ZonesTouched != br.ZonesTouched || sc.TreesRebuilt != br.TreesRebuilt || br.ZonesTouched == 0 {
		t.Errorf("explain scenario = %+v, want 1 delta with blast radius %+v", sc, br)
	}

	if rec := do(s, http.MethodDelete, "/v1/cities/coventry/scenario", ""); rec.Code != http.StatusOK {
		t.Fatalf("revert status %d: %s", rec.Code, rec.Body.String())
	}
	if raw, ok := explain(72)["scenario"]; ok {
		t.Errorf("explain after revert still has a scenario block: %s", raw)
	}
}

// TestSameFingerprintAcrossEpochChanges: one fingerprint asked before and
// after each kind of engine change — a scenario apply, its revert, a
// snapshot swap — is answered by the engine serving when it is asked. The
// first ask after a change is a fresh run on the new epoch (never the old
// epoch's entry), the second a hit on that run; and the reverted baseline
// answers exactly as the original baseline did.
func TestSameFingerprintAcrossEpochChanges(t *testing.T) {
	s, reg := multiCityServer(t, serve.Config{Workers: 2})
	s.snapDir = multiCitySnaps(t)
	tn, _ := reg.Get("coventry")
	engine, _, release := tn.Acquire()
	route := string(engine.City.Feed.Routes[0].ID)
	release()

	const body = `{"category": "school", "budget": 0.3, "seed": 71}`
	ask := func(step string, epoch uint64) queryResponse {
		t.Helper()
		run := postQueryResp(t, s, "/v1/query", body)
		if run.Cache.Hit || run.Cache.Epoch != epoch || run.Cache.EpochStale {
			t.Fatalf("%s: first ask %+v, want a fresh run on epoch %d", step, run.Cache, epoch)
		}
		hit := postQueryResp(t, s, "/v1/query", body)
		if !hit.Cache.Hit || hit.Cache.Epoch != epoch || hit.Cache.EpochStale || hit.Fairness != run.Fairness {
			t.Fatalf("%s: second ask %+v (fairness %v, run %v), want a hit on epoch %d",
				step, hit.Cache, hit.Fairness, run.Fairness, epoch)
		}
		return run
	}
	change := func(step, method, target, reqBody string, want int) {
		t.Helper()
		if rec := do(s, method, target, reqBody); rec.Code != want {
			t.Fatalf("%s: status %d: %s", step, rec.Code, rec.Body.String())
		}
	}

	base := ask("baseline", 1)
	change("scenario", http.MethodPost, "/v1/cities/coventry/scenario",
		fmt.Sprintf(`{"mutations": [{"kind": "close_route", "route": %q}]}`, route), http.StatusCreated)
	ask("scenario", 2)
	change("revert", http.MethodDelete, "/v1/cities/coventry/scenario", "", http.StatusOK)
	if reverted := ask("revert", 3); reverted.Fairness != base.Fairness {
		t.Errorf("reverted baseline fairness %v, original baseline %v", reverted.Fairness, base.Fairness)
	}
	change("swap", http.MethodPost, "/v1/cities/coventry/snapshots/covB:activate", "", http.StatusCreated)
	ask("swap", 4)
}
