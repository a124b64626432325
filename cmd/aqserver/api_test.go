package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// decodeError parses the JSON error envelope and fails the test if the
// response does not carry one.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder) errorBody {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var env errorBody
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", env)
	}
	return env
}

// TestMethodNotAllowed sends every method a path's apiSurface entries do
// not take to every path, and a mismatched verb to the snapshot item, and
// expects 405 with an Allow header naming the path's methods in table
// order, and the error envelope.
func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	var paths []string
	allow := map[string][]string{}
	for _, rt := range apiSurface() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		if allow[path] == nil {
			paths = append(paths, path)
		}
		allow[path] = append(allow[path], method)
	}
	// Allow values clients already rely on.
	for path, want := range map[string]string{
		"/v1/jobs/{id}":                    "GET, DELETE",
		"/v1/cities/{name}/scenario":       "GET, POST, DELETE",
		"/v1/cities/{name}/snapshots":      "GET, POST",
		"/v1/cities/{name}/snapshots/{id}": "GET, POST",
	} {
		if got := strings.Join(allow[path], ", "); got != want {
			t.Errorf("%s: table methods %q, want %q", path, got, want)
		}
	}
	type probe struct{ method, target, allow string }
	var cases []probe
	sub := strings.NewReplacer("{name}", "coventry", "{id}", "j00000001")
	for _, path := range paths {
		for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			if !slices.Contains(allow[path], m) {
				cases = append(cases, probe{m, sub.Replace(path), strings.Join(allow[path], ", ")})
			}
		}
	}
	// The snapshot item's one verb travels inside the {id} segment.
	for _, c := range []struct{ method, id string }{
		{http.MethodGet, "pinned:activate"},
		{http.MethodPost, "pinned"},
		{http.MethodPost, "pinned:frobnicate"},
	} {
		cases = append(cases, probe{c.method, "/v1/cities/coventry/snapshots/" + c.id, "GET, POST"})
	}
	for _, c := range cases {
		rec := do(s, c.method, c.target, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.target, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.target, got, c.allow)
		}
		if env := decodeError(t, rec); env.Error.Code != "method_not_allowed" {
			t.Errorf("%s %s: error code %q", c.method, c.target, env.Error.Code)
		}
	}
}

// TestHeadAnswersLikeGet pins the net/http convention for HEAD on a GET
// resource: the GET status and headers, no body.
func TestHeadAnswersLikeGet(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodHead, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("HEAD /v1/stats: status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("HEAD /v1/stats: Content-Type %q", ct)
	}
}

// TestUnsupportedMediaType posts a non-JSON body to /v1/query and expects
// 415. An absent Content-Type stays accepted for terse curl usage.
func TestUnsupportedMediaType(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader("category=school"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", rec.Code)
	}
	if env := decodeError(t, rec); env.Error.Code != "unsupported_media_type" {
		t.Errorf("error code %q", env.Error.Code)
	}

	// Charset parameters on a JSON Content-Type are fine.
	req = httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"category": "school", "budget": 0.2, "model": "OLS"}`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	rec = httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("json+charset status %d, want 200: %s", rec.Code, rec.Body.String())
	}

	// No Content-Type at all is accepted.
	req = httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"category": "nosuchcategory"}`))
	rec = httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest { // past the 415 gate, rejected on content
		t.Errorf("no content-type status %d, want 400", rec.Code)
	}
}

// TestRemovedRoutesStayRemoved pins the retired surface: the pre-/v1
// spellings, the /v1/city singleton and the swap verb answer 404 in the
// error envelope, with no deprecation headers left behind.
func TestRemovedRoutesStayRemoved(t *testing.T) {
	s := testServer(t)
	cases := []struct{ method, target string }{
		{http.MethodPost, "/query"},
		{http.MethodGet, "/stats"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/city"},
		{http.MethodGet, "/v1/city"},
		{http.MethodGet, "/zones"},
		{http.MethodGet, "/journey"},
		{http.MethodGet, "/jobs/x"},
		{http.MethodPost, "/v1/cities/coventry/swap"},
		// Paths that name no resource: a wildcard is one whole, non-empty
		// segment.
		{http.MethodGet, "/v1/jobs/"},
		{http.MethodDelete, "/v1/jobs/"},
		{http.MethodGet, "/v1/jobs/a/b"},
		{http.MethodGet, "/v1/jobs/j00000001/"},
		{http.MethodGet, "/v1/jobs/j00000001/trace/"},
		{http.MethodGet, "/v1/cities/"},
		{http.MethodGet, "/v1/cities/coventry/"},
		{http.MethodGet, "/v1/cities/coventry/zones"},
		{http.MethodGet, "/v1/cities/coventry/scenario/"},
		{http.MethodGet, "/v1/cities/coventry/snapshots/"},
		{http.MethodGet, "/v1/cities/coventry/snapshots/a/b"},
	}
	for _, c := range cases {
		rec := do(s, c.method, c.target, "")
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.target, rec.Code)
			continue
		}
		if env := decodeError(t, rec); env.Error.Code != codeNotFound {
			t.Errorf("%s %s: error code %q, want %q", c.method, c.target, env.Error.Code, codeNotFound)
		}
		for _, h := range []string{"Deprecation", "Sunset", "Link"} {
			if got := rec.Header().Get(h); got != "" {
				t.Errorf("%s %s: %s header %q on a removed route", c.method, c.target, h, got)
			}
		}
	}
}

// TestMetricsEndpoint runs one query and checks that /v1/metrics then
// exposes the engine stage histograms, SPQ and relaxation counters, and
// serving-layer counters in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	rec := postQuery(s, "/v1/query", `{"category": "school", "budget": 0.2, "model": "OLS", "seed": 7}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}

	rec = do(s, http.MethodGet, "/v1/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`aq_engine_stage_seconds_bucket{stage="matrix",le="+Inf"}`,
		`aq_engine_stage_seconds_bucket{stage="labeling",le="+Inf"}`,
		`aq_engine_stage_seconds_bucket{stage="training",le="+Inf"}`,
		`aq_engine_spqs_total`,
		`aq_router_relaxations_total`,
		`aq_serve_cache_misses_total`,
		`aq_serve_run_seconds_count`,
		`aq_http_requests_total{code="200",route="/v1/query"}`,
		`# TYPE aq_engine_stage_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
	// Text-format sanity: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}
