// Package account attributes serving cost to the tenant that incurred
// it. Every figure is one the serving layer measured for that query
// alone: wall-clock, per-stage time and queue wait from the run's span
// tree, SPQs priced and label-bank drains from its result, cache hits,
// and engine build time from the registry. Everything rolls up into a
// per-city TenantCost snapshot (the `cost` block in /v1/stats) and
// `aq_cost_*` series in the process-wide registry, so an operator can
// answer "which tenant is spending the engine's time" before deciding
// what to shard. Process-wide CPU and heap belong to pprof, not here: they
// cannot be split between concurrent tenants.
//
// A nil *Accountant disables everything: every method is nil-safe and the
// disabled path performs no allocation and no locking, so embedders pay
// nothing when accounting is off.
package account

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"accessquery/internal/obs"
)

// Bill carries what the serving layer knows about one served query: an
// engine run's wall time, queue wait, stages and pipeline counters, or
// just the fact that the cache answered it.
type Bill struct {
	CacheHit    bool
	Wall        time.Duration
	QueueWait   time.Duration
	Stages      []obs.Stage
	SPQs        int64
	BankDrained int64
	Failed      bool
}

// TenantCost is one city's accumulated bill since process start.
type TenantCost struct {
	City             string             `json:"city"`
	Jobs             int64              `json:"jobs"`
	Failures         int64              `json:"failures"`
	CacheHits        int64              `json:"cache_hits"`
	WallSeconds      float64            `json:"wall_seconds"`
	QueueWaitSeconds float64            `json:"queue_wait_seconds"`
	SPQs             int64              `json:"spqs,omitempty"`
	BankDrained      int64              `json:"bank_drained,omitempty"`
	Builds           int64              `json:"builds,omitempty"`
	BuildSeconds     float64            `json:"build_seconds,omitempty"`
	StageSeconds     map[string]float64 `json:"stage_seconds,omitempty"`
}

// Accountant accumulates per-tenant cost. Create with New; a nil
// Accountant is a valid, zero-cost disabled accountant.
type Accountant struct {
	mu      sync.Mutex
	tenants map[string]*TenantCost
}

// New returns an empty accountant.
func New() *Accountant {
	return &Accountant{tenants: make(map[string]*TenantCost)}
}

// Bill attributes one served query to city: a cache hit counts as such,
// anything else as an engine run with its wall, queue and stage time.
func (a *Accountant) Bill(city string, b Bill) {
	if a == nil {
		return
	}
	a.mu.Lock()
	tc := a.tenantLocked(city)
	if b.CacheHit {
		tc.CacheHits++
	} else {
		tc.Jobs++
		if b.Failed {
			tc.Failures++
		}
		tc.WallSeconds += b.Wall.Seconds()
		tc.QueueWaitSeconds += b.QueueWait.Seconds()
		tc.SPQs += b.SPQs
		tc.BankDrained += b.BankDrained
		for _, st := range b.Stages {
			tc.StageSeconds[st.Name] += st.Seconds
		}
	}
	a.mu.Unlock()

	cm := costMetricsFor(city)
	if b.CacheHit {
		cm.cacheHits.Inc()
		return
	}
	cm.jobs.Inc()
	if b.Failed {
		cm.failures.Inc()
	}
	cm.wallMicros.Add(b.Wall.Microseconds())
	cm.queueMicros.Add(b.QueueWait.Microseconds())
	cm.spqs.Add(b.SPQs)
	cm.bankDrained.Add(b.BankDrained)
	for _, st := range b.Stages {
		cm.stage(st.Name).Add(int64(st.Seconds * 1e6))
	}
}

// RecordBuild bills an engine (re)build — snapshot load, scenario rebuild,
// hot-swap — to the city it served.
func (a *Accountant) RecordBuild(city string, d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	tc := a.tenantLocked(city)
	tc.Builds++
	tc.BuildSeconds += d.Seconds()
	a.mu.Unlock()
	cm := costMetricsFor(city)
	cm.builds.Inc()
	cm.buildMicros.Add(d.Microseconds())
}

// tenantLocked returns (creating on first use) city's rollup. Callers hold
// a.mu.
func (a *Accountant) tenantLocked(city string) *TenantCost {
	if city == "" {
		city = "default"
	}
	tc, ok := a.tenants[city]
	if !ok {
		tc = &TenantCost{City: city, StageSeconds: make(map[string]float64)}
		a.tenants[city] = tc
	}
	return tc
}

// Snapshot returns every tenant's accumulated cost, sorted by city.
func (a *Accountant) Snapshot() []TenantCost {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]TenantCost, 0, len(a.tenants))
	for _, tc := range a.tenants {
		c := *tc
		c.StageSeconds = make(map[string]float64, len(tc.StageSeconds))
		for k, v := range tc.StageSeconds {
			c.StageSeconds[k] = v
		}
		out = append(out, c)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].City < out[j].City })
	return out
}

// costMetrics is one city's slice of the aq_cost_* series. Integer-unit
// counters (micros, bytes) keep the registry's monotone counter type.
type costMetrics struct {
	city        string
	jobs        *obs.CounterMetric
	failures    *obs.CounterMetric
	cacheHits   *obs.CounterMetric
	wallMicros  *obs.CounterMetric
	queueMicros *obs.CounterMetric
	spqs        *obs.CounterMetric
	bankDrained *obs.CounterMetric
	builds      *obs.CounterMetric
	buildMicros *obs.CounterMetric

	stageMu     sync.Mutex
	stageMicros map[string]*obs.CounterMetric
}

func (cm *costMetrics) stage(name string) *obs.CounterMetric {
	cm.stageMu.Lock()
	defer cm.stageMu.Unlock()
	c, ok := cm.stageMicros[name]
	if !ok {
		c = obs.Counter(fmt.Sprintf("aq_cost_stage_micros_total{city=%q,stage=%q}", cm.city, name))
		cm.stageMicros[name] = c
	}
	return c
}

var (
	costMetricsMu sync.Mutex
	costMetricsBy = make(map[string]*costMetrics)
)

func costMetricsFor(city string) *costMetrics {
	if city == "" {
		city = "default"
	}
	costMetricsMu.Lock()
	defer costMetricsMu.Unlock()
	if cm, ok := costMetricsBy[city]; ok {
		return cm
	}
	cm := &costMetrics{
		city:        city,
		jobs:        obs.Counter(fmt.Sprintf("aq_cost_jobs_total{city=%q}", city)),
		failures:    obs.Counter(fmt.Sprintf("aq_cost_failures_total{city=%q}", city)),
		cacheHits:   obs.Counter(fmt.Sprintf("aq_cost_cache_hits_total{city=%q}", city)),
		wallMicros:  obs.Counter(fmt.Sprintf("aq_cost_wall_micros_total{city=%q}", city)),
		queueMicros: obs.Counter(fmt.Sprintf("aq_cost_queue_wait_micros_total{city=%q}", city)),
		spqs:        obs.Counter(fmt.Sprintf("aq_cost_spqs_total{city=%q}", city)),
		bankDrained: obs.Counter(fmt.Sprintf("aq_cost_bank_drained_total{city=%q}", city)),
		builds:      obs.Counter(fmt.Sprintf("aq_cost_builds_total{city=%q}", city)),
		buildMicros: obs.Counter(fmt.Sprintf("aq_cost_build_micros_total{city=%q}", city)),
		stageMicros: make(map[string]*obs.CounterMetric),
	}
	costMetricsBy[city] = cm
	return cm
}

func init() {
	obs.Default.SetHelp("aq_cost_jobs_total", "Engine runs billed to the city, by tenant.")
	obs.Default.SetHelp("aq_cost_failures_total", "Billed engine runs that finished with an error, by tenant.")
	obs.Default.SetHelp("aq_cost_cache_hits_total", "Submissions answered without an engine run, by tenant.")
	obs.Default.SetHelp("aq_cost_wall_micros_total", "Wall-clock microseconds of engine runs, by tenant.")
	obs.Default.SetHelp("aq_cost_queue_wait_micros_total", "Microseconds billed runs waited in the admission queue, by tenant.")
	obs.Default.SetHelp("aq_cost_spqs_total", "Shortest-path queries priced during billed runs, by tenant.")
	obs.Default.SetHelp("aq_cost_bank_drained_total", "Trips answered from the SPQ label bank during billed runs, by tenant.")
	obs.Default.SetHelp("aq_cost_builds_total", "Engine builds (snapshot loads, scenario rebuilds, hot-swaps) billed, by tenant.")
	obs.Default.SetHelp("aq_cost_build_micros_total", "Wall-clock microseconds of billed engine builds, by tenant.")
	obs.Default.SetHelp("aq_cost_stage_micros_total", "Per-pipeline-stage wall microseconds of billed runs, by tenant and stage.")
}
