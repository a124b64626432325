package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// envInfo is the machine and build a result was measured on; numbers from
// different envInfo are not comparable.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func readEnv(root string) envInfo {
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", GitCommit: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then
	// simply not known.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// record is one run as archived under benchmark/out: the driver's result
// plus what is needed to judge and reproduce it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	// WindowS is the measured window as it actually ran (requests in
	// flight at the deadline complete).
	WindowS   float64           `json:"window_s,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of observations behind each metric.
	Samples    map[string]int `json:"samples"`
	Digest     string         `json:"answer_digest,omitempty"`
	Violations []string       `json:"violations,omitempty"`
	// ServerFlags are the only flags the subprocess was given.
	ServerFlags []string `json:"server_flags,omitempty"`
	// ClientCPUShare is the load generator's own CPU use as a share of the
	// machine over the window.
	ClientCPUShare float64 `json:"client.cpu_share,omitempty"`
	Env            envInfo `json:"env"`
}

func newRecord(cfg config, workload string, trace bool) *record {
	return &record{Workload: workload, Seed: cfg.seed, Trace: trace, Seconds: cfg.seconds, Env: readEnv(cfg.root)}
}

// finish folds the emitted metrics in and decides correctness: no wrong
// answer, and every metric of the spec's section present.
func (r *record) finish(e *emitter) {
	r.Metrics, r.Samples = e.metrics, e.samples
	for _, name := range e.missing() {
		r.Violations = append(r.Violations, "metric not emitted: "+name)
	}
	r.Correct = len(r.Violations) == 0
}

// resultLine is the driver's contract: the last line of standard output.
func (r *record) resultLine() string {
	raw, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(raw)
}

// print writes every metric by name and unit, in the spec's order.
func (r *record) print(w io.Writer, specs []metricSpec) {
	mode := "end to end"
	if r.Trace {
		mode = "per layer"
	}
	fmt.Fprintf(w, "%s (%s, seed %d): attempted %d, failed %d, correct %v\n", r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, s := range specs {
		if m, ok := r.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s (n=%d)\n", s.Name, m.Value, m.Unit, r.Samples[s.Name])
		}
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  %-34s %s\n", "answer_digest", r.Digest)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  WRONG: %s\n", v)
	}
}

// appendTo adds the record as one line to a result-set file.
func (r *record) appendTo(path string) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSet loads a result-set file: one record per line.
func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	for dec := json.NewDecoder(f); dec.More(); {
		var r record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// verdict of one (metric, workload) pairing between two result sets.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareSets judges set b against set a with the bounds of
// BENCHMARK.json: per end-to-end metric and workload, regressed when b's
// median is worse than a's by more than the bound, unresolved when either
// side's quartile spread is wider than the bound, ok otherwise. It reports
// whether b regressed anywhere or failed a larger share of its requests.
func compareSets(w io.Writer, spec *benchSpec, a, b []record) (regressed bool) {
	type key struct{ workload, metric string }
	collect := func(set []record) (map[key][]float64, map[string][2]int) {
		vals := map[key][]float64{}
		fails := map[string][2]int{}
		for _, r := range set {
			if r.Trace {
				continue
			}
			f := fails[r.Workload]
			fails[r.Workload] = [2]int{f[0] + r.Failed, f[1] + r.Attempted}
			for name, m := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], m.Value)
			}
		}
		return vals, fails
	}
	va, fa := collect(a)
	vb, fb := collect(b)
	spread := func(v []float64) float64 {
		q1, q3 := quartiles(v)
		return ratio(q3-q1, median(v))
	}
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			k := key{wl.Name, m.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			ma, mb := median(va[k]), median(vb[k])
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va[k]), spread(vb[k])
			v := verdictOK
			switch {
			case worse > m.Bound:
				v = verdictRegressed
				regressed = true
			case sa > m.Bound || sb > m.Bound:
				v = verdictUnresolved
			}
			fmt.Fprintf(w, "%-16s %-26s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sa, 100*sb, 100*m.Bound, v)
		}
		sharesA, sharesB := ratio(float64(fa[wl.Name][0]), float64(fa[wl.Name][1])), ratio(float64(fb[wl.Name][0]), float64(fb[wl.Name][1]))
		v := verdictOK
		if sharesB > sharesA {
			v = verdictRegressed
			regressed = true
		}
		fmt.Fprintf(w, "%-16s %-26s %12.5g %12.5g %55s\n", wl.Name, "failed_share", sharesA, sharesB, v)
	}
	// Counts and digests must repeat exactly between two sets of one
	// commit; between two commits a difference is what the reader looks for.
	reportExact(w, a, b)
	return regressed
}

// reportExact lists traced count metrics and answer digests that differ
// between the two sets for the same workload and seed.
func reportExact(w io.Writer, a, b []record) {
	type key struct {
		workload string
		seed     int64
		trace    bool
	}
	index := map[key]record{}
	for _, r := range a {
		index[key{r.Workload, r.Seed, r.Trace}] = r
	}
	var diffs []string
	for _, rb := range b {
		ra, ok := index[key{rb.Workload, rb.Seed, rb.Trace}]
		if !ok {
			continue
		}
		if ra.Digest != rb.Digest {
			diffs = append(diffs, fmt.Sprintf("%s seed %d: answer_digest %.12s != %.12s", rb.Workload, rb.Seed, ra.Digest, rb.Digest))
		}
		for name, mb := range rb.Metrics {
			if ma, ok := ra.Metrics[name]; ok && exactMetrics[name] && ma.Value != mb.Value {
				diffs = append(diffs, fmt.Sprintf("%s seed %d: %s %g != %g", rb.Workload, rb.Seed, name, ma.Value, mb.Value))
			}
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		fmt.Fprintln(w, "differs:", d)
	}
	if len(diffs) == 0 {
		fmt.Fprintln(w, "counts, ratios of counts and answer digests repeat exactly where both sets have the same workload and seed")
	}
}

// exactMetrics are deterministic given the seed — counts, ratios of
// counts, and the canary's error — and so must repeat exactly between two
// runs of one commit.
var exactMetrics = map[string]bool{
	"answer_mape_pct":                true,
	"access.spqs_per_query":          true,
	"access.profiles_per_zone":       true,
	"router.relaxations_per_profile": true,
	"todam.trips_per_query":          true,
	"todam.reduction_pct":            true,
	"features.cache_hit_ratio":       true,
	"bank.hit_ratio":                 true,
	"serve.cache_hit_ratio":          true,
	"delta.zones_touched_ratio":      true,
	"delta.trees_rebuilt_ratio":      true,
}
