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
// A nil *Accountant disables everything: every method is nil-safe, a nil
// Accountant hands out nil *Tenant records that bill nothing, and the
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
	tenants map[string]*Tenant // written only when a record is created
}

// New returns an empty accountant.
func New() *Accountant {
	return &Accountant{tenants: make(map[string]*Tenant)}
}

// Tenant is one city's cost record: its TenantCost rollup and its aq_cost_*
// series, all under one mutex. The serving layer resolves it once per city
// and bills through it; a nil *Tenant (a disabled accountant's) bills
// nothing. Integer-unit counters (micros) keep the registry's monotone
// counter type.
type Tenant struct {
	mu   sync.Mutex
	cost TenantCost

	jobs, failures, cacheHits, wallMicros, queueMicros *obs.CounterMetric
	spqs, bankDrained, builds, buildMicros             *obs.CounterMetric
	stageMicros                                        map[string]*obs.CounterMetric
}

// Ensure returns city's record, creating it and its series on first use.
// A nil Accountant returns nil.
func (a *Accountant) Ensure(city string) *Tenant {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[city]; ok {
		return t
	}
	counter := func(family string) *obs.CounterMetric {
		return obs.Counter(fmt.Sprintf("%s{city=%q}", family, city))
	}
	t := &Tenant{
		cost:        TenantCost{City: city, StageSeconds: make(map[string]float64)},
		jobs:        counter("aq_cost_jobs_total"),
		failures:    counter("aq_cost_failures_total"),
		cacheHits:   counter("aq_cost_cache_hits_total"),
		wallMicros:  counter("aq_cost_wall_micros_total"),
		queueMicros: counter("aq_cost_queue_wait_micros_total"),
		spqs:        counter("aq_cost_spqs_total"),
		bankDrained: counter("aq_cost_bank_drained_total"),
		builds:      counter("aq_cost_builds_total"),
		buildMicros: counter("aq_cost_build_micros_total"),
		stageMicros: make(map[string]*obs.CounterMetric),
	}
	a.tenants[city] = t
	return t
}

// Bill attributes one served query to the city: a cache hit counts as
// such, anything else as an engine run with its wall, queue and stage time.
func (t *Tenant) Bill(b Bill) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tc := &t.cost
	if b.CacheHit {
		tc.CacheHits++
		t.cacheHits.Inc()
		return
	}
	tc.Jobs++
	t.jobs.Inc()
	if b.Failed {
		tc.Failures++
		t.failures.Inc()
	}
	tc.WallSeconds += b.Wall.Seconds()
	t.wallMicros.Add(b.Wall.Microseconds())
	tc.QueueWaitSeconds += b.QueueWait.Seconds()
	t.queueMicros.Add(b.QueueWait.Microseconds())
	tc.SPQs += b.SPQs
	t.spqs.Add(b.SPQs)
	tc.BankDrained += b.BankDrained
	t.bankDrained.Add(b.BankDrained)
	for _, st := range b.Stages {
		tc.StageSeconds[st.Name] += st.Seconds
		c, ok := t.stageMicros[st.Name]
		if !ok {
			c = obs.Counter(fmt.Sprintf("aq_cost_stage_micros_total{city=%q,stage=%q}", tc.City, st.Name))
			t.stageMicros[st.Name] = c
		}
		c.Add(int64(st.Seconds * 1e6))
	}
}

// RecordBuild bills an engine (re)build — snapshot load, scenario rebuild,
// hot-swap — to the city it served.
func (a *Accountant) RecordBuild(city string, d time.Duration) {
	t := a.Ensure(city)
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cost.Builds++
	t.cost.BuildSeconds += d.Seconds()
	t.builds.Inc()
	t.buildMicros.Add(d.Microseconds())
}

// Snapshot returns every tenant's accumulated cost, sorted by city.
func (a *Accountant) Snapshot() []TenantCost {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]TenantCost, 0, len(a.tenants))
	for _, t := range a.tenants {
		t.mu.Lock()
		c := t.cost
		c.StageSeconds = make(map[string]float64, len(t.cost.StageSeconds))
		for k, v := range t.cost.StageSeconds {
			c.StageSeconds[k] = v
		}
		t.mu.Unlock()
		out = append(out, c)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].City < out[j].City })
	return out
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
