// Package obs is the process-wide observability layer for the query
// pipeline: a dependency-free metrics registry (atomic counters, gauges,
// and bounded-bucket histograms) exposed in Prometheus text format, plus
// lightweight context-carried stage spans.
//
// The paper's headline claims are timing claims — Table II decomposes the
// online query cost into matrix/labeling/features/training stages — and a
// serving deployment needs those decompositions as live distributions, not
// one-shot structs. Every hot-path operation is a single atomic update, so
// instrumentation stays near-zero-cost whether or not anything scrapes it.
//
// Metrics are identified by a Prometheus-style name with optional constant
// labels embedded, e.g.
//
//	aq_engine_stage_seconds{stage="matrix"}
//
// Get-or-create accessors (Registry.Counter, Registry.Gauge,
// Registry.Histogram) make registration idempotent: the first call creates
// the metric, later calls return the same instance, and a kind mismatch
// panics loudly at init time rather than corrupting a scrape.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry used by the package-level accessors
// and by the instrumented pipeline packages (core, serve, router).
var Default = NewRegistry()

// Counter returns the named counter from the Default registry.
func Counter(name string) *CounterMetric { return Default.Counter(name) }

// Gauge returns the named gauge from the Default registry.
func Gauge(name string) *GaugeMetric { return Default.Gauge(name) }

// Histogram returns the named histogram from the Default registry with the
// default latency buckets.
func Histogram(name string) *HistogramMetric { return Default.Histogram(name) }

// WritePrometheus writes the Default registry in Prometheus text format.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// kind discriminates registered metric types.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric under its canonical full name.
type entry struct {
	family string // metric family (name without labels)
	labels string // canonical rendered label body, "" when unlabeled
	kind   kind

	counter   *CounterMetric
	gauge     *GaugeMetric
	gaugeFunc func() float64
	hist      *HistogramMetric
}

// Registry holds named metrics and renders them for scraping. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry // canonical full name -> entry
	help    map[string]string // family -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		help:    make(map[string]string),
	}
}

// SetHelp attaches a HELP line to a metric family (the name without
// labels). Safe to call before or after the family's metrics exist.
func (r *Registry) SetHelp(family, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[family] = text
}

// Counter returns the counter registered under name, creating it on first
// use. It panics if name is malformed or already registered as another
// kind.
func (r *Registry) Counter(name string) *CounterMetric {
	e := r.getOrCreate(name, kindCounter, nil)
	return e.counter
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *GaugeMetric {
	e := r.getOrCreate(name, kindGauge, nil)
	return e.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (e.g. a queue length). Re-registering the same name replaces the
// callback, so a restarted subsystem can rebind its gauge.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	family, labels := mustParseName(name)
	full := renderName(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[full]; ok && prev.kind != kindGaugeFunc {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", full, prev.kind))
	}
	r.entries[full] = &entry{family: family, labels: labels, kind: kindGaugeFunc, gaugeFunc: fn}
}

// Histogram returns the histogram registered under name with the default
// latency buckets, creating it on first use.
func (r *Registry) Histogram(name string) *HistogramMetric {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets returns the histogram registered under name, creating
// it with the given upper bounds (seconds) on first use; nil selects
// DefBuckets. Bounds of an existing histogram are not changed.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *HistogramMetric {
	e := r.getOrCreate(name, kindHistogram, bounds)
	return e.hist
}

func (r *Registry) getOrCreate(name string, k kind, bounds []float64) *entry {
	family, labels := mustParseName(name)
	full := renderName(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[full]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, want %s", full, e.kind, k))
		}
		return e
	}
	e := &entry{family: family, labels: labels, kind: k}
	switch k {
	case kindCounter:
		e.counter = &CounterMetric{}
	case kindGauge:
		e.gauge = &GaugeMetric{}
	case kindHistogram:
		e.hist = newHistogram(bounds)
	}
	r.entries[full] = e
	return e
}

// CounterMetric is a monotonically increasing event count.
type CounterMetric struct {
	v atomic.Int64
}

// Inc adds one.
func (c *CounterMetric) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone; this is
// not enforced on the hot path).
func (c *CounterMetric) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *CounterMetric) Value() int64 { return c.v.Load() }

// GaugeMetric is a value that can go up and down (queue depth, busy
// workers).
type GaugeMetric struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *GaugeMetric) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta atomically.
func (g *GaugeMetric) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *GaugeMetric) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *GaugeMetric) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *GaugeMetric) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Output is deterministic: families are
// sorted by name, series by label set. Values are read atomically per
// series; a scrape concurrent with writes sees each series' latest value
// but no torn reads.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].family != entries[j].family {
			return entries[i].family < entries[j].family
		}
		return entries[i].labels < entries[j].labels
	})
	var lastFamily string
	for _, e := range entries {
		if e.family != lastFamily {
			if h, ok := help[e.family]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.family, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.family, e.kind); err != nil {
				return err
			}
			lastFamily = e.family
		}
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func writeEntry(w io.Writer, e *entry) error {
	series := renderName(e.family, e.labels)
	switch e.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", series, e.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", series, formatFloat(e.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %s\n", series, formatFloat(e.gaugeFunc()))
		return err
	case kindHistogram:
		return e.hist.write(w, e.family, e.labels)
	}
	return nil
}

// withLabel renders family{labels,extraK="extraV"} appending one label to
// an existing canonical label body.
func withLabel(family, labels, extraK, extraV string) string {
	lbl := fmt.Sprintf("%s=%q", extraK, extraV)
	if labels != "" {
		lbl = labels + "," + lbl
	}
	return family + "{" + lbl + "}"
}

func renderName(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mustParseName splits `family{k="v",...}` into the family and a canonical
// (key-sorted) label body, panicking on malformed input. Metric names are
// compile-time constants in this codebase, so a panic is an init-time
// programming error, not a runtime hazard.
func mustParseName(name string) (family, labels string) {
	family, labels, err := parseName(name)
	if err != nil {
		panic("obs: " + err.Error())
	}
	return family, labels
}

func parseName(name string) (family, labels string, err error) {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		if !validFamily(name) {
			return "", "", fmt.Errorf("invalid metric name %q", name)
		}
		return name, "", nil
	}
	family = name[:open]
	if !validFamily(family) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	body := name[open:]
	if !strings.HasSuffix(body, "}") {
		return "", "", fmt.Errorf("unterminated label body in %q", name)
	}
	body = body[1 : len(body)-1]
	if body == "" {
		return family, "", nil
	}
	type kv struct{ k, v string }
	var pairs []kv
	for _, part := range splitLabels(body) {
		eq := strings.Index(part, "=")
		if eq <= 0 {
			return "", "", fmt.Errorf("malformed label %q in %q", part, name)
		}
		k := strings.TrimSpace(part[:eq])
		v := strings.TrimSpace(part[eq+1:])
		if !validFamily(k) {
			return "", "", fmt.Errorf("invalid label name %q in %q", k, name)
		}
		uq, uerr := strconv.Unquote(v)
		if uerr != nil {
			return "", "", fmt.Errorf("label value %s in %q must be a quoted string", v, name)
		}
		pairs = append(pairs, kv{k, uq})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("%s=%q", p.k, p.v)
	}
	return family, strings.Join(parts, ","), nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(body string) []string {
	var parts []string
	var start int
	inQuote := false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, body[start:])
	return parts
}

func validFamily(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
