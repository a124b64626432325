// Incremental engine derivation for the scenario delta layer.
//
// A full NewEngine run recomputes every offline stage. Deriving instead
// starts from an existing engine and replaces only what a network mutation
// can actually change: transit mutations invalidate hop trees (forest),
// the feature extractor built over them, and the timetable router; POI and
// zone-weight mutations invalidate nothing offline at all, because POIs
// and weights enter only at query time through the TODAM spec. Walking
// isochrones, zone centroids, and the spatial indexes depend solely on the
// road network and zone geometry, which no mutation kind touches, so they
// are always shared with the base engine.
package core

import (
	"fmt"
	"time"

	"accessquery/internal/features"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/router"
	"accessquery/internal/synth"
)

// ScenarioSummary is the provenance block a derived engine carries: how
// many delta batches and mutations produced it and the cumulative blast
// radius. Every run on the engine carries it in Result.Scenario, so
// ?explain=1 can report what the scenario rebuild actually did.
type ScenarioSummary struct {
	// Deltas is the number of applied mutation batches.
	Deltas int `json:"deltas"`
	// Mutations is the total mutation count across batches.
	Mutations int `json:"mutations"`
	// ZonesTouched and TreesRebuilt describe the latest batch's blast
	// radius (trees = outbound + inbound per touched zone).
	ZonesTouched int `json:"zones_touched"`
	TreesRebuilt int `json:"hop_trees_rebuilt"`
	// RebuildMS is the latest incremental rebuild's wall time;
	// FullPrepMS the measured from-scratch prep of the baseline engine,
	// the cost the delta path avoided.
	RebuildMS  int64 `json:"rebuild_ms"`
	FullPrepMS int64 `json:"est_full_rebuild_ms"`
}

// DeriveSpec describes one incremental derivation.
type DeriveSpec struct {
	// City is the mutated city. Its road network, zone set, and zone
	// centroids must be identical to the base engine's (mutations never
	// touch them); the timetable, POIs, and weights may differ.
	City *synth.City
	// Forest is the hop-tree forest over the mutated timetable, typically
	// from hoptree.RebuildZones. Nil means the timetable is unchanged and
	// the base's forest, extractor, and router are shared outright.
	Forest *hoptree.Forest
	// RebuiltZones lists the zones whose trees Forest rebuilt; the feature
	// caches of every other zone are seeded from the base extractor.
	RebuiltZones []int
}

// DeriveStats reports what a derivation reused versus rebuilt.
type DeriveStats struct {
	// RouterRebuilt is true when the timetable changed and the transit
	// index and router were reconstructed.
	RouterRebuilt bool
	// CacheEntriesSeeded and CacheEntriesDropped count feature-cache
	// entries copied from the base extractor versus discarded as
	// potentially stale.
	CacheEntriesSeeded  int
	CacheEntriesDropped int
}

// Derive builds an engine for the mutated city, reusing every base
// structure the mutation provably cannot have changed. The result is
// value-identical to NewEngine over the same city (the delta package's
// property tests assert deep equality); PrepDuration records only the
// incremental work.
func (e *Engine) Derive(spec DeriveSpec) (*Engine, DeriveStats, error) {
	var stats DeriveStats
	if spec.City == nil {
		return nil, stats, fmt.Errorf("core: derive: nil city")
	}
	if len(spec.City.Zones) != len(e.zonePts) {
		return nil, stats, fmt.Errorf("core: derive: city has %d zones, base engine %d",
			len(spec.City.Zones), len(e.zonePts))
	}
	start := time.Now()
	d := &Engine{
		City:        spec.City,
		Interval:    e.Interval,
		zonePts:     e.zonePts,
		isos:        e.isos,
		forest:      e.forest,
		extractor:   e.extractor,
		router:      e.router,
		zoneTree:    e.zoneTree,
		roadTree:    e.roadTree,
		parallelism: e.parallelism,
		routerOpts:  e.routerOpts,
		// Derived engines share (or alias) the base forest and isochrones,
		// which may live inside the base snapshot's file mapping.
		snapSrc: e.snapSrc,
	}
	// The GNN adjacency depends only on zone centroids, which are shared.
	e.adjMu.Lock()
	d.adjCache = e.adjCache
	e.adjMu.Unlock()
	if spec.Forest != nil && spec.Forest != e.forest {
		if spec.Forest.Zones() != len(e.zonePts) {
			return nil, stats, fmt.Errorf("core: derive: forest covers %d zones, base engine %d",
				spec.Forest.Zones(), len(e.zonePts))
		}
		extractor, err := features.NewExtractor(spec.Forest, e.zonePts, e.isos, e.extractor.Hops)
		if err != nil {
			return nil, stats, fmt.Errorf("core: derive: %w", err)
		}
		stats.CacheEntriesSeeded, stats.CacheEntriesDropped =
			extractor.SeedFrom(e.extractor, spec.RebuiltZones)
		ix := gtfs.NewIndex(spec.City.Feed, e.Interval.Day)
		rt, err := router.New(spec.City.Road, ix, spec.City.StopNode, e.routerOpts)
		if err != nil {
			return nil, stats, fmt.Errorf("core: derive: %w", err)
		}
		d.forest = spec.Forest
		d.extractor = extractor
		d.router = rt
		stats.RouterRebuilt = true
	}
	d.PrepDuration = time.Since(start)
	return d, stats, nil
}
