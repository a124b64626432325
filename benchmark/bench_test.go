package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs the traced run of one workload and every workload end to
// end, on a small city with a one-second window, and checks the harness
// against BENCHMARK.json: every listed metric emitted exactly once with its
// unit, nothing unlisted, and the run's own correctness checks passing. It
// asserts no timing.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	checkSpec(t, spec)

	ctx := context.Background()
	bin, err := buildServer(ctx, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	smoke := func(t *testing.T) config {
		cfg := config{
			root: root, outDir: t.TempDir(), bin: bin, spec: spec,
			seed: 1, seconds: 1, scale: 0.08, traceQueries: 2,
		}
		if err := os.MkdirAll(filepath.Join(cfg.outDir, "snapshots"), 0o755); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	// The traced run reads process-wide counters and allocation totals, so
	// it runs alone, before the parallel end-to-end runs start. The churn
	// workload's replay touches the most layers.
	t.Run("per_layer/scenario_churn", func(t *testing.T) {
		rec, err := runTraced(ctx, smoke(t), "scenario_churn")
		if err != nil {
			t.Fatal(err)
		}
		checkRecord(t, rec, spec.PerLayer, false)
	})
	for _, w := range spec.Workloads {
		name := w.Name
		t.Run("end_to_end/"+name, func(t *testing.T) {
			t.Parallel()
			rec, err := runEndToEnd(ctx, smoke(t), name)
			if err != nil {
				t.Fatal(err)
			}
			checkRecord(t, rec, spec.EndToEnd, true)
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpec holds BENCHMARK.json to the limits its consumers impose.
func checkSpec(t *testing.T, spec *benchSpec) {
	t.Helper()
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		name("metric", m.Name)
		if m.Unit == "" {
			t.Errorf("metric %q has no unit", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no end-to-end setup_s in seconds, lower is better")
	}
}

// checkRecord checks one run's output against its section of the spec.
func checkRecord(t *testing.T, rec *record, specs []metricSpec, nonZero bool) {
	t.Helper()
	if !rec.Correct {
		t.Errorf("run is not correct: %v", rec.Violations)
	}
	if rec.Attempted < 1 || rec.Failed != 0 {
		t.Errorf("attempted %d, failed %d", rec.Attempted, rec.Failed)
	}
	if len(rec.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, the spec lists %d", len(rec.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := rec.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("metric %q not emitted", s.Name)
		case m.Unit != s.Unit:
			t.Errorf("metric %q has unit %q, want %q", s.Name, m.Unit, s.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %q is %v", s.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %q is %v, must be positive", s.Name, m.Value)
		}
	}

	// The driver's line: exactly four keys.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(rec.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
}

// TestCompare checks the three verdicts on hand-made result sets.
func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(lat, qps []float64, failed int) []record {
		var out []record
		for i := range lat {
			out = append(out, record{Workload: "w", Seed: int64(i), Attempted: 100, Failed: failed, Metrics: map[string]metric{
				"lat": {Value: lat[i], Unit: "ms"}, "qps": {Value: qps[i], Unit: "1/s"},
			}})
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102}
	base := set(steady, steady, 0)
	for _, tc := range []struct {
		name      string
		b         []record
		regressed bool
		want      string
	}{
		{"same", base, false, verdictOK},
		{"slower", set([]float64{120, 121, 119, 120, 122}, steady, 0), true, verdictRegressed},
		{"fewer qps", set(steady, []float64{80, 81, 79, 80, 82}, 0), true, verdictRegressed},
		{"noisy", set([]float64{80, 101, 99, 120, 102}, steady, 0), false, verdictUnresolved},
		{"failing", set(steady, steady, 1), true, verdictRegressed},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, spec, base, tc.b); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, out.String())
		}
		if !bytes.Contains(out.Bytes(), []byte(tc.want)) {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.want, out.String())
		}
	}
}
