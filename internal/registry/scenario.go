package registry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/delta"
	"accessquery/internal/obs"
)

// Scenario support: a tenant can carry a stack of applied mutation batches
// ("deltas") over a pinned baseline engine. Each batch derives a new engine
// incrementally — only the mutations' blast radius is rebuilt — and is
// installed through the ordinary epoch machinery, so in-flight queries
// drain on the displaced generation and epoch-keyed caches invalidate for
// free. Scenario state is runtime-only: it does not survive a restart, and
// any non-scenario swap (snapshot, SIGHUP reload, rebuild) discards it.

// ErrNoScenario is returned by RevertScenario when no deltas are applied.
var ErrNoScenario = errors.New("registry: no scenario applied")

// AppliedDelta is one applied mutation batch with its provenance.
type AppliedDelta struct {
	// ID numbers batches within the scenario, starting at 1.
	ID int `json:"id"`
	// Applied is when the batch was installed; Epoch the engine epoch it
	// produced.
	Applied time.Time `json:"applied"`
	Epoch   uint64    `json:"epoch"`
	// Mutations is the batch as received.
	Mutations []delta.Mutation `json:"mutations"`
	// BlastRadius reports what the batch's incremental rebuild touched.
	BlastRadius delta.BlastRadius `json:"blast_radius"`
}

// ScenarioStatus describes a tenant's scenario state, shaped for the
// /v1/cities/{name}/scenario responses.
type ScenarioStatus struct {
	City   string `json:"city"`
	Active bool   `json:"active"`
	// Epoch is the tenant's current engine epoch; BaselineEpoch the epoch
	// the scenario derives from (only when active).
	Epoch         uint64         `json:"epoch"`
	BaselineEpoch uint64         `json:"baseline_epoch,omitempty"`
	Deltas        []AppliedDelta `json:"deltas,omitempty"`
}

// scenarioState pins the baseline and accumulates applied batches. Guarded
// by the tenant's swapMu. Holding baseline here keeps the baseline engine,
// and the snapshot mapping it may serve from, alive even after its epoch
// drains, so revert is O(1).
type scenarioState struct {
	baseline      *core.Engine
	baselineEpoch uint64
	cumulative    []delta.Mutation
	applied       []AppliedDelta
}

// ApplyScenario applies one mutation batch on top of the tenant's scenario
// (starting one if none is active), installs the derived engine as a new
// epoch, and returns the batch's provenance. On error — including invalid
// mutations — the current epoch keeps serving and the scenario state is
// unchanged.
func (t *Tenant) ApplyScenario(batch []delta.Mutation) (Info, AppliedDelta, *Retired, error) {
	if len(batch) == 0 {
		return Info{}, AppliedDelta{}, nil, fmt.Errorf("registry: empty mutation batch for %s", t.Name)
	}
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	cur := t.cur.Load()
	sc := t.scenario
	if sc == nil {
		sc = &scenarioState{baseline: cur.engine, baselineEpoch: cur.epoch}
	}
	cumulative := make([]delta.Mutation, 0, len(sc.cumulative)+len(batch))
	cumulative = append(cumulative, sc.cumulative...)
	cumulative = append(cumulative, batch...)

	eng, radius, err := delta.Apply(cur.engine, sc.baseline.City, cumulative, batch,
		len(sc.applied)+1, t.reg.opts.Parallelism, sc.baseline.PrepDuration)
	if err != nil {
		return Info{}, AppliedDelta{}, nil, err
	}
	if t.scenario == nil {
		// Pin before install drops the baseline generation's bias.
		sc.baseline.RetainSnapshot()
	}
	retired := t.install(eng, fmt.Sprintf("scenario:%d-deltas", len(sc.applied)+1),
		delta.BankImpactOf(batch).SeedForward)
	applied := AppliedDelta{
		ID:          len(sc.applied) + 1,
		Applied:     t.reg.opts.now(),
		Epoch:       t.cur.Load().epoch,
		Mutations:   batch,
		BlastRadius: radius,
	}
	sc.cumulative = cumulative
	sc.applied = append(sc.applied, applied)
	t.scenario = sc
	dm := deltaMetricsFor(t.Name)
	dm.batches.Inc()
	dm.mutations.Add(int64(len(batch)))
	dm.zonesTouched.Add(int64(radius.ZonesTouched))
	dm.treesRebuilt.Add(int64(radius.TreesRebuilt))
	dm.treesSpared.Add(int64(radius.TreesTotal - radius.TreesRebuilt))
	dm.active.Set(float64(len(sc.applied)))
	mDeltaRebuild.ObserveDuration(time.Duration(radius.RebuildMS) * time.Millisecond)
	t.reg.opts.Logger.Info("scenario delta applied",
		"city", t.Name, "delta", applied.ID, "epoch", applied.Epoch,
		"mutations", len(batch), "zones_touched", radius.ZonesTouched,
		"trees_rebuilt", radius.TreesRebuilt, "rebuild_ms", radius.RebuildMS)
	return t.Info(), applied, retired, nil
}

// Scenario reports the tenant's scenario state.
func (t *Tenant) Scenario() ScenarioStatus {
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	st := ScenarioStatus{City: t.Name, Epoch: t.Epoch()}
	if t.scenario != nil {
		st.Active = true
		st.BaselineEpoch = t.scenario.baselineEpoch
		st.Deltas = append([]AppliedDelta(nil), t.scenario.applied...)
	}
	return st
}

// RevertScenario discards all applied deltas and reinstalls the pinned
// baseline engine as a new epoch (the epoch always moves forward, so
// caches created under scenario epochs stay invalidated). Returns
// ErrNoScenario when no scenario is active.
func (t *Tenant) RevertScenario() (Info, *Retired, error) {
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	if t.scenario == nil {
		return Info{}, nil, ErrNoScenario
	}
	baseline := t.scenario.baseline
	retired := t.install(baseline, fmt.Sprintf("scenario:revert-to-epoch-%d", t.scenario.baselineEpoch), false)
	baseline.ReleaseSnapshot()
	t.scenario = nil
	dm := deltaMetricsFor(t.Name)
	dm.reverts.Inc()
	dm.active.Set(0)
	t.reg.opts.Logger.Info("scenario reverted",
		"city", t.Name, "epoch", t.Epoch())
	return t.Info(), retired, nil
}

// clearScenario drops scenario state after a non-scenario swap made the
// baseline meaningless. Called with swapMu held.
func (t *Tenant) clearScenario() {
	if t.scenario == nil {
		return
	}
	t.scenario.baseline.ReleaseSnapshot()
	t.scenario = nil
	deltaMetricsFor(t.Name).active.Set(0)
}

// Delta metrics, labeled by city like the registry gauges.
type deltaMetrics struct {
	batches      *obs.CounterMetric // aq_delta_batches_total{city}
	mutations    *obs.CounterMetric // aq_delta_mutations_total{city}
	zonesTouched *obs.CounterMetric // aq_delta_zones_touched_total{city}
	treesRebuilt *obs.CounterMetric // aq_delta_trees_rebuilt_total{city}
	treesSpared  *obs.CounterMetric // aq_delta_trees_spared_total{city}
	reverts      *obs.CounterMetric // aq_delta_reverts_total{city}
	active       *obs.GaugeMetric   // aq_delta_active{city}
}

var (
	mDeltaRebuild = obs.Histogram("aq_delta_rebuild_seconds")

	deltaMu     sync.Mutex
	deltaByCity = make(map[string]*deltaMetrics)
)

func deltaMetricsFor(city string) *deltaMetrics {
	deltaMu.Lock()
	defer deltaMu.Unlock()
	if m, ok := deltaByCity[city]; ok {
		return m
	}
	m := &deltaMetrics{
		batches:      obs.Counter(fmt.Sprintf("aq_delta_batches_total{city=%q}", city)),
		mutations:    obs.Counter(fmt.Sprintf("aq_delta_mutations_total{city=%q}", city)),
		zonesTouched: obs.Counter(fmt.Sprintf("aq_delta_zones_touched_total{city=%q}", city)),
		treesRebuilt: obs.Counter(fmt.Sprintf("aq_delta_trees_rebuilt_total{city=%q}", city)),
		treesSpared:  obs.Counter(fmt.Sprintf("aq_delta_trees_spared_total{city=%q}", city)),
		reverts:      obs.Counter(fmt.Sprintf("aq_delta_reverts_total{city=%q}", city)),
		active:       obs.Gauge(fmt.Sprintf("aq_delta_active{city=%q}", city)),
	}
	deltaByCity[city] = m
	return m
}

func init() {
	obs.Default.SetHelp("aq_delta_batches_total", "Scenario mutation batches applied per city.")
	obs.Default.SetHelp("aq_delta_mutations_total", "Individual scenario mutations applied per city.")
	obs.Default.SetHelp("aq_delta_zones_touched_total", "Zones inside applied deltas' blast radii per city.")
	obs.Default.SetHelp("aq_delta_trees_rebuilt_total", "Hop trees incrementally rebuilt by scenario deltas per city.")
	obs.Default.SetHelp("aq_delta_trees_spared_total", "Hop trees shared unchanged across scenario deltas per city.")
	obs.Default.SetHelp("aq_delta_reverts_total", "Scenario reverts to baseline per city.")
	obs.Default.SetHelp("aq_delta_active", "Applied scenario deltas currently in effect per city.")
	obs.Default.SetHelp("aq_delta_rebuild_seconds", "Incremental scenario rebuild wall time.")
}
