package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
)

// TestTenantServingStateGolden drives a fixed two-city session — runs, cache
// hits, an empty city, an unknown city, an async job and a scenario apply —
// and compares what an operator reads afterwards against
// testdata/tenant_state.golden: every key and value of /v1/stats and
// /v1/slo, and the change in every coventry- and birmingham-labelled
// series of /v1/metrics. Timing values (seconds, micros) are checked for
// presence only; everything else must match exactly.
func TestTenantServingStateGolden(t *testing.T) {
	before := scrapeCitySeries(t, exposition(t))

	dir := multiCitySnaps(t)
	acct := account.New()
	reg, err := registry.Open([]registry.TenantSpec{
		{Name: "coventry", Path: filepath.Join(dir, "covA.snap")},
		{Name: "birmingham", Path: filepath.Join(dir, "bham.snap")},
	}, registry.Options{Accountant: acct})
	if err != nil {
		t.Fatal(err)
	}
	eng := mustSLO(t, "p99=1h,avail=99;birmingham:avail=99.5")
	for _, name := range reg.Names() {
		eng.Ensure(name)
	}
	s := newServer(reg, serve.Config{Workers: 2, Accountant: acct, SLO: eng, BurnTripThreshold: 14.4}, serve.RunnerConfig{})
	t.Cleanup(func() { shutdownServer(t, s) })

	step := func(method, target, body string, want int) *bytes.Buffer {
		t.Helper()
		rec := do(s, method, target, body)
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, target, rec.Code, want, rec.Body.String())
		}
		return rec.Body
	}
	const q = "/v1/query"
	step(http.MethodPost, q, `{"category": "school", "city": "coventry", "seed": 11}`, http.StatusOK)
	step(http.MethodPost, q, `{"category": "school", "city": "coventry", "seed": 11}`, http.StatusOK)
	step(http.MethodPost, q, `{"category": "school", "seed": 11}`, http.StatusOK)
	step(http.MethodPost, q+"?city=Birmingham", `{"category": "school", "seed": 11}`, http.StatusOK)
	step(http.MethodPost, q, `{"category": "school", "city": "birmingham", "seed": 11}`, http.StatusOK)
	step(http.MethodPost, q, `{"category": "school", "city": "atlantis", "seed": 11}`, http.StatusNotFound)

	var accepted struct {
		JobID string `json:"job_id"`
	}
	body := step(http.MethodPost, q+"?async=1", `{"category": "school", "city": "birmingham", "seed": 12}`, http.StatusAccepted)
	if err := json.NewDecoder(body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	job, err := s.mgr.Get(accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := s.mgr.Wait(ctx, job); err != nil {
		t.Fatal(err)
	}

	tn, _ := reg.Get("coventry")
	engine, _, release := tn.Acquire()
	route := string(engine.City.Feed.Routes[0].ID)
	release()
	step(http.MethodPost, "/v1/cities/coventry/scenario",
		fmt.Sprintf(`{"mutations": [{"kind": "close_route", "route": %q}]}`, route), http.StatusCreated)
	step(http.MethodPost, q, `{"category": "school", "seed": 11}`, http.StatusOK)
	step(http.MethodPost, q, `{"category": "school", "city": "coventry", "seed": 11}`, http.StatusOK)

	var out strings.Builder
	for _, route := range []string{"/v1/stats", "/v1/slo"} {
		var doc interface{}
		if err := json.NewDecoder(step(http.MethodGet, route, "", http.StatusOK)).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "# %s\n", route)
		for _, line := range flattenJSON(route, doc, false) {
			out.WriteString(line + "\n")
		}
	}
	out.WriteString("# /v1/metrics\n")
	after := scrapeCitySeries(t, step(http.MethodGet, "/v1/metrics", "", http.StatusOK).String())
	for _, line := range seriesDeltas(before, after) {
		out.WriteString(line + "\n")
	}

	want, err := os.ReadFile(filepath.Join("testdata", "tenant_state.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("serving state differs from testdata/tenant_state.golden\n--- got:\n%s", got)
	}
}

// timingKey reports whether a JSON key or series name carries a measured
// duration, whose value no run reproduces.
func timingKey(name string) bool {
	return strings.Contains(name, "seconds") || strings.Contains(name, "micros")
}

// flattenJSON renders a decoded JSON document as sorted "path = value"
// lines; a timing value, or any value under a timing key, renders as
// "path present".
func flattenJSON(path string, v interface{}, timed bool) []string {
	switch v := v.(type) {
	case map[string]interface{}:
		var out []string
		for k, child := range v {
			out = append(out, flattenJSON(path+"."+k, child, timed || timingKey(k))...)
		}
		sort.Strings(out)
		return out
	case []interface{}:
		var out []string
		for i, child := range v {
			out = append(out, flattenJSON(fmt.Sprintf("%s[%d]", path, i), child, timed)...)
		}
		return out
	}
	if timed {
		return []string{path + " present"}
	}
	b, _ := json.Marshal(v)
	return []string{path + " = " + string(b)}
}

func exposition(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// citySeries is one coventry- or birmingham-labelled series of an
// exposition: its value and its family's type.
type citySeries struct {
	kind  string
	value float64
}

func scrapeCitySeries(t *testing.T, text string) map[string]citySeries {
	t.Helper()
	kinds := make(map[string]string)
	out := make(map[string]citySeries)
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ := strings.Cut(rest, " ")
			kinds[family] = kind
			continue
		}
		if !strings.Contains(line, `city="coventry"`) && !strings.Contains(line, `city="birmingham"`) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		name := line[:i]
		family, _, _ := strings.Cut(name, "{")
		out[name] = citySeries{kind: kinds[family], value: v}
	}
	return out
}

// seriesDeltas renders every city series present after the session, sorted:
// a counter by how much the session added, a gauge by the value it was
// left at, and a timing series by its presence alone.
func seriesDeltas(before, after map[string]citySeries) []string {
	out := make([]string, 0, len(after))
	for name, s := range after {
		switch {
		case timingKey(name):
			out = append(out, name+" present")
		case s.kind == "counter":
			out = append(out, fmt.Sprintf("%s +%g", name, s.value-before[name].value))
		default:
			out = append(out, fmt.Sprintf("%s = %g", name, s.value))
		}
	}
	sort.Strings(out)
	return out
}
