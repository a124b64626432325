// Package slo evaluates per-tenant service-level objectives over the
// serving layer's outcome stream. An operator declares availability and
// latency objectives per city (`-slo "p99=2s,avail=99.9"` with optional
// `;city:...` overrides); the engine folds every finished query into
// coarse time buckets and answers "how fast are we spending the error
// budget" with the SRE multi-window burn rate:
//
//	burn(window) = bad_fraction(window) / budget_fraction
//
// where budget_fraction is (100-avail)/100 for availability and
// (1 - quantile) for a pNN latency objective. A burn of 1 spends the
// budget exactly at sustainable rate; 14.4 exhausts a 30-day budget in
// 50 hours. Paging signals pair a short and a long window (fast: 5m AND
// 1h; slow: 1h AND 6h) and fire only when both burn — the short window
// gives fast reset, the long one rides out blips.
//
// A nil *Engine disables everything: it hands out nil *Tenant records,
// whose Record and FastBurn are nil-safe and allocation-free, so the
// disabled path costs one pointer compare per query.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accessquery/internal/obs"
)

// Objectives is one tenant's declared SLO.
type Objectives struct {
	// LatencyTarget is the per-query latency bound; zero means no latency
	// objective.
	LatencyTarget time.Duration
	// LatencyQuantile is the fraction of queries that must meet
	// LatencyTarget (0.99 for p99).
	LatencyQuantile float64
	// AvailabilityPct is the percentage of queries that must succeed
	// (99.9); zero means no availability objective.
	AvailabilityPct float64
}

// view renders the objectives for JSON reports.
func (o Objectives) view() ObjectivesView {
	v := ObjectivesView{AvailabilityPct: o.AvailabilityPct}
	if o.LatencyTarget > 0 {
		q := strconv.FormatFloat(o.LatencyQuantile*100, 'f', -1, 64)
		v.Latency = "p" + strings.ReplaceAll(q, ".", "") + "<=" + o.LatencyTarget.String()
	}
	return v
}

// ObjectivesView is the JSON form of Objectives.
type ObjectivesView struct {
	Latency         string  `json:"latency,omitempty"`
	AvailabilityPct float64 `json:"availability_pct,omitempty"`
}

// Spec is a parsed -slo flag: a default objective set plus per-city
// overrides.
type Spec struct {
	Default Objectives
	PerCity map[string]Objectives
}

// For resolves the objectives governing city.
func (s *Spec) For(city string) Objectives {
	if s == nil {
		return Objectives{}
	}
	if o, ok := s.PerCity[city]; ok {
		return o
	}
	return s.Default
}

// ParseSpec parses an -slo flag value. The grammar is semicolon-separated
// clauses; the first clause without a `city:` prefix is the default, the
// rest override individual cities:
//
//	p99=2s,avail=99.9;coventry:p99=500ms;leeds:avail=99
//
// Each clause is a comma list of `pNN=<duration>` and `avail=<percent>`.
// "" and "off" parse to a nil Spec (SLOs disabled).
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "off") {
		return nil, nil
	}
	spec := &Spec{PerCity: make(map[string]Objectives)}
	seenDefault := false
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		city := ""
		body := clause
		if c, rest, ok := strings.Cut(clause, ":"); ok && !strings.Contains(c, "=") {
			// The tenant-name rule registry.ParseSpec and Registry.Get apply.
			city, body = strings.ToLower(strings.TrimSpace(c)), rest
			if city == "" {
				return nil, fmt.Errorf("slo: empty city in clause %q", clause)
			}
		}
		obj, err := parseObjectives(body)
		if err != nil {
			return nil, err
		}
		if city == "" {
			if seenDefault {
				return nil, fmt.Errorf("slo: multiple default clauses in %q", s)
			}
			spec.Default, seenDefault = obj, true
		} else {
			spec.PerCity[city] = obj
		}
	}
	return spec, nil
}

func parseObjectives(body string) (Objectives, error) {
	var o Objectives
	for _, item := range strings.Split(body, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return o, fmt.Errorf("slo: objective %q is not key=value", item)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case k == "avail":
			pct, err := strconv.ParseFloat(v, 64)
			if err != nil || pct <= 0 || pct >= 100 {
				return o, fmt.Errorf("slo: avail=%q must be a percentage in (0,100)", v)
			}
			o.AvailabilityPct = pct
		case strings.HasPrefix(k, "p") && len(k) > 1:
			digits := k[1:]
			n, err := strconv.ParseUint(digits, 10, 32)
			if err != nil {
				return o, fmt.Errorf("slo: unknown objective %q", k)
			}
			q := float64(n) / pow10(len(digits))
			if q <= 0 || q >= 1 {
				return o, fmt.Errorf("slo: quantile %q out of range", k)
			}
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("slo: %s=%q is not a positive duration", k, v)
			}
			o.LatencyTarget = d
			o.LatencyQuantile = q
		default:
			return o, fmt.Errorf("slo: unknown objective %q", k)
		}
	}
	if o.LatencyTarget == 0 && o.AvailabilityPct == 0 {
		return o, fmt.Errorf("slo: clause %q declares no objective", body)
	}
	return o, nil
}

func pow10(n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

// Time buckets: outcomes land in 10-second buckets retained for the
// longest window (6h), so window sums are exact to one bucket's
// granularity and memory per tenant is fixed (2160 slots).
const (
	bucketSeconds = 10
	numBuckets    = (6 * 3600) / bucketSeconds
)

// windows are the burn-rate evaluation horizons, shortest first.
var windows = []struct {
	name string
	dur  time.Duration
}{
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
}

// slot is one 10-second bucket of a tenant's outcome stream.
type slot struct {
	epoch  int64 // unix-seconds / bucketSeconds; a stale epoch means "empty"
	total  int64
	errors int64
	slow   int64
}

// Engine evaluates burn rates for every tenant that records outcomes.
// Create with New; a nil Engine is a valid disabled engine.
type Engine struct {
	spec *Spec
	now  func() time.Time

	mu      sync.Mutex
	tenants map[string]*Tenant // written only when a record is created
}

// New returns an engine enforcing spec, or nil when spec is nil (SLOs
// off) — callers hold a nil *Engine and every method no-ops.
func New(spec *Spec) *Engine {
	if spec == nil {
		return nil
	}
	return &Engine{
		spec:    spec,
		now:     time.Now,
		tenants: make(map[string]*Tenant),
	}
}

// Tenant is one city's SLO record: its objectives and its outcome ring,
// under its own mutex. The serving layer resolves it once per city and
// records through it; a nil *Tenant (a disabled engine's) records nothing
// and never burns.
type Tenant struct {
	city string
	obj  Objectives
	now  func() time.Time

	mu    sync.Mutex
	slots []slot
}

// Ensure returns city's record, creating it and registering its burn-rate
// gauges on first use, so the city appears in reports before any traffic
// arrives. A nil Engine returns nil.
func (e *Engine) Ensure(city string) *Tenant {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.tenants[city]; ok {
		return t
	}
	t := &Tenant{city: city, obj: e.spec.For(city), now: e.now, slots: make([]slot, numBuckets)}
	e.tenants[city] = t
	for _, w := range windows {
		dur := w.dur
		series := fmt.Sprintf("aq_slo_burn_rate{city=%q,window=%q}", city, w.name)
		obs.Default.GaugeFunc(series, func() float64 { return t.burnRate(dur) })
	}
	return t
}

// Record folds one finished query into the city's outcome stream. Failed
// queries count against availability; successful ones slower than the
// latency target count against latency.
func (t *Tenant) Record(latency time.Duration, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := t.now().Unix() / bucketSeconds
	sl := &t.slots[int(ep%numBuckets)]
	if sl.epoch != ep {
		*sl = slot{epoch: ep}
	}
	sl.total++
	switch {
	case failed:
		sl.errors++
	case t.obj.LatencyTarget > 0 && latency > t.obj.LatencyTarget:
		sl.slow++
	}
}

// sum totals the buckets inside [nowEpoch-buckets+1, nowEpoch]. Callers
// hold t.mu.
func (t *Tenant) sum(nowEpoch, buckets int64) (total, errors, slow int64) {
	min := nowEpoch - buckets + 1
	for i := range t.slots {
		if s := &t.slots[i]; s.epoch >= min && s.epoch <= nowEpoch {
			total += s.total
			errors += s.errors
			slow += s.slow
		}
	}
	return total, errors, slow
}

// burns computes the availability and latency burn rates from window
// totals; the window's burn is the worse of the two.
func burns(obj Objectives, total, errors, slow int64) (availBurn, latBurn float64) {
	if total == 0 {
		return 0, 0
	}
	if obj.AvailabilityPct > 0 {
		budget := (100 - obj.AvailabilityPct) / 100
		availBurn = (float64(errors) / float64(total)) / budget
	}
	if obj.LatencyTarget > 0 {
		budget := 1 - obj.LatencyQuantile
		latBurn = (float64(slow) / float64(total)) / budget
	}
	return availBurn, latBurn
}

// burnRate is the city's burn rate over the trailing window: the worse of
// its availability and latency burns; zero for a quiet window.
func (t *Tenant) burnRate(window time.Duration) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total, errors, slow := t.sum(t.now().Unix()/bucketSeconds, int64(window/time.Second)/bucketSeconds)
	a, l := burns(t.obj, total, errors, slow)
	return max(a, l)
}

// FastBurn is the paging signal: the city is burning fast only when both
// the 5m and 1h windows agree, so a brief spike resets within minutes but
// a sustained burn fires quickly. Zero for a nil record.
func (t *Tenant) FastBurn() float64 {
	if t == nil {
		return 0
	}
	return min(t.burnRate(5*time.Minute), t.burnRate(time.Hour))
}

// WindowReport is one evaluation window of a tenant's SLO report.
type WindowReport struct {
	Window           string  `json:"window"`
	Total            int64   `json:"total"`
	Errors           int64   `json:"errors"`
	Slow             int64   `json:"slow"`
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
	Burn             float64 `json:"burn"`
}

// TenantReport is one city's multi-window burn-rate view, the unit of the
// /v1/slo response.
type TenantReport struct {
	City       string         `json:"city"`
	Objectives ObjectivesView `json:"objectives"`
	Windows    []WindowReport `json:"windows"`
	FastBurn   float64        `json:"fast_burn"`
	SlowBurn   float64        `json:"slow_burn"`
}

// Snapshot reports every known tenant, sorted by city.
func (e *Engine) Snapshot() []TenantReport {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	tenants := make([]*Tenant, 0, len(e.tenants))
	for _, t := range e.tenants {
		tenants = append(tenants, t)
	}
	e.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].city < tenants[j].city })
	out := make([]TenantReport, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.report())
	}
	return out
}

// report is the city's multi-window report.
func (t *Tenant) report() TenantReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	nowEp := t.now().Unix() / bucketSeconds
	r := TenantReport{City: t.city, Objectives: t.obj.view()}
	burnsByWindow := make([]float64, len(windows))
	for i, w := range windows {
		total, errors, slow := t.sum(nowEp, int64(w.dur/time.Second)/bucketSeconds)
		a, l := burns(t.obj, total, errors, slow)
		wr := WindowReport{
			Window: w.name, Total: total, Errors: errors, Slow: slow,
			AvailabilityBurn: a, LatencyBurn: l, Burn: max(a, l),
		}
		burnsByWindow[i] = wr.Burn
		r.Windows = append(r.Windows, wr)
	}
	r.FastBurn = min(burnsByWindow[0], burnsByWindow[1])
	r.SlowBurn = min(burnsByWindow[1], burnsByWindow[2])
	return r
}

func init() {
	obs.Default.SetHelp("aq_slo_burn_rate", "Error-budget burn rate per tenant and trailing window (1 = spending exactly at sustainable rate).")
}
