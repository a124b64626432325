package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"accessquery/internal/access"
	"accessquery/internal/bank"
	"accessquery/internal/core"
	"accessquery/internal/delta"
	"accessquery/internal/features"
	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/isochrone"
	"accessquery/internal/mat"
	"accessquery/internal/ml"
	"accessquery/internal/obs"
	"accessquery/internal/router"
	"accessquery/internal/spatial"
	"accessquery/internal/todam"
)

// The layer probes time calls into each layer's public functions on the
// canary query's own inputs. They are the same on every workload: a probe
// says what one call costs, the replay (layers.go) says how much of a
// workload's query each layer is.

// timeEach runs fn n times, each call under its own span, and returns the
// durations in nanoseconds.
func (t *tracer) timeEach(name string, n int, fn func(i int) error) ([]float64, error) {
	t.reserve(n)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp := t.start(name, root)
		err := fn(i)
		d := t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, float64(d))
	}
	return out, nil
}

// timeBatches is timeEach for calls too short to time one by one: fn makes
// `calls` calls under one span, and the result is nanoseconds per call.
func (t *tracer) timeBatches(name string, batches, calls int, fn func()) []float64 {
	per, _ := t.timeEach(name, batches, func(int) error { fn(); return nil })
	for i := range per {
		per[i] /= float64(calls)
	}
	return per
}

// reserve grows the span buffer so that recording n spans allocates
// nothing, which keeps the benchmark's own appends out of the allocation
// deltas taken around a probe.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if free := cap(t.spans) - len(t.spans); free < n {
		grown := make([]span, len(t.spans), len(t.spans)+n)
		copy(grown, t.spans)
		t.spans = grown
	}
}

// allocsDuring returns the heap objects and bytes fn allocated.
func allocsDuring(fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// routerCounters reads the oracle's process-wide counters from the public
// metrics registry.
type routerCounters struct{ profiles, relaxations, improvements int64 }

func readRouterCounters() routerCounters {
	return routerCounters{
		profiles:     obs.Counter("aq_router_profiles_total").Value(),
		relaxations:  obs.Counter("aq_router_relaxations_total").Value(),
		improvements: obs.Counter("aq_router_improvements_total").Value(),
	}
}

func (a routerCounters) since(b routerCounters) routerCounters {
	return routerCounters{a.profiles - b.profiles, a.relaxations - b.relaxations, a.improvements - b.improvements}
}

// digestResult hashes every valid zone's MAC and ACSD.
func digestResult(res *core.Result) string {
	h := sha256.New()
	for z := range res.MAC {
		if res.Valid[z] {
			fmt.Fprintf(h, "%d:%x:%x;", z, math.Float64bits(res.MAC[z]), math.Float64bits(res.ACSD[z]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

const (
	probeRepeats = 3
	// overheadPairs is how many (with, without) pairs price an instrument;
	// the pair's order alternates so neither side always runs second.
	overheadPairs = 12
)

// probeLayers runs every workload-independent probe and emits its
// metrics. st is the in-process serving stack the replay left behind
// (scenario reverted), used for the serve and registry probes.
func probeLayers(cfg config, tr *tracer, st *stack, e *emitter) (violations []string, err error) {
	workers := runtime.GOMAXPROCS(0)
	c, err := newCity(cfg.scale)
	if err != nil {
		return nil, err
	}
	zonePts := make([]geo.Point, len(c.Zones))
	for i, z := range c.Zones {
		zonePts[i] = z.Centroid
	}
	opts := core.EngineOptions{Interval: amPeak, Parallelism: workers}

	// core: offline build, snapshot round trip.
	var eng *core.Engine
	ns, err := tr.timeEach("core.new_engine", probeRepeats, func(int) (err error) {
		eng, err = core.NewEngine(c, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.set("core.new_engine_ns", median(ns), len(ns))
	snap := filepath.Join(cfg.outDir, "snapshots", "probe.snap")
	if ns, err = tr.timeEach("core.save_snapshot", probeRepeats, func(int) error { return eng.SaveSnapshot(snap) }); err != nil {
		return nil, err
	}
	e.set("core.save_snapshot_ns", median(ns), len(ns))
	if ns, err = tr.timeEach("core.load_engine", probeRepeats, func(int) error {
		_, err := core.LoadEngine(snap)
		return err
	}); err != nil {
		return nil, err
	}
	e.set("core.load_engine_ns", median(ns), len(ns))

	// isochrone and hoptree: the two offline stages NewEngine is made of,
	// and the incremental rebuild a scenario apply runs instead.
	if ns, err = tr.timeEach("isochrone.compute_set", probeRepeats, func(int) error {
		_, err := isochrone.ComputeSetParallel(c.Road, zonePts, c.ZoneNode, isochrone.DefaultTauSeconds, workers)
		return err
	}); err != nil {
		return nil, err
	}
	e.set("isochrone.compute_set_ns", median(ns), len(ns))
	builder, err := hoptree.NewBuilder(c.Feed, amPeak, zonePts, eng.Isochrones())
	if err != nil {
		return nil, err
	}
	if ns, err = tr.timeEach("hoptree.build_forest", probeRepeats, func(int) error {
		_, err := hoptree.BuildForestParallel(builder, workers)
		return err
	}); err != nil {
		return nil, err
	}
	e.set("hoptree.build_forest_ns", median(ns), len(ns))
	closed, _, err := delta.MutateCity(c, churnMutation)
	if err != nil {
		return nil, err
	}
	closedBuilder, err := hoptree.NewBuilder(closed.Feed, amPeak, zonePts, eng.Isochrones())
	if err != nil {
		return nil, err
	}
	touched := hoptree.ZonesWithinWalkshed(zonePts, eng.Isochrones(), delta.AffectedStops(c.Feed, churnMutation))
	if ns, err = tr.timeEach("hoptree.rebuild_zones", probeRepeats, func(int) error {
		_, err := hoptree.RebuildZones(closedBuilder, eng.Forest(), touched, workers)
		return err
	}); err != nil {
		return nil, err
	}
	e.set("hoptree.rebuild_zones_ns", median(ns), len(ns))

	// core: the canary, cold, twice. The second run must repeat every
	// count and every zone's measure, or counts mean nothing.
	q := canaryQuery(c)
	q.Parallelism = workers
	var runs [2]*core.Result
	var counts [2]routerCounters
	coldNS, err := tr.timeEach("core.run", len(runs), func(i int) (err error) {
		before := readRouterCounters()
		runs[i], err = eng.Run(q)
		counts[i] = readRouterCounters().since(before)
		return err
	})
	if err != nil {
		return nil, err
	}
	res, m := runs[0], runs[0].Matrix
	if runs[1].Timing.SPQs != res.Timing.SPQs || runs[1].Matrix.Size() != m.Size() ||
		counts[1] != counts[0] || digestResult(runs[1]) != digestResult(res) {
		violations = append(violations, fmt.Sprintf("two runs of the canary differ: spqs %d/%d, trips %d/%d, router counters %+v/%+v, digests %.12s/%.12s",
			res.Timing.SPQs, runs[1].Timing.SPQs, m.Size(), runs[1].Matrix.Size(), counts[0], counts[1], digestResult(res), digestResult(runs[1])))
	}
	e.set("todam.trips_per_query", float64(m.Size()), 1)
	e.set("todam.reduction_pct", m.Reduction(), 1)
	e.set("router.relaxations_per_profile", ratio(float64(counts[0].relaxations), float64(counts[0].profiles)), int(counts[0].profiles))
	e.set("router.improvement_ratio", ratio(float64(counts[0].improvements), float64(counts[0].relaxations)), int(counts[0].relaxations))

	// core: the size axis. One cold canary on the city at twice the scale;
	// the exponent is log2 of the time ratio (1 = linear in zones).
	big, err := newCity(math.Min(1, 2*cfg.scale))
	if err != nil {
		return nil, err
	}
	bigEng, err := core.NewEngine(big, opts)
	if err != nil {
		return nil, err
	}
	bq := canaryQuery(big)
	bq.Parallelism = workers
	bigNS, err := tr.timeEach("core.run@2x", 1, func(int) error {
		_, err := bigEng.Run(bq)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.set("core.scale_exponent", math.Log2(bigNS[0]/median(coldNS)), 1)

	// router: ProfileFrom replayed over the exact (origin, start) set the
	// canary's labeling used.
	var labeled []int
	for z, ok := range res.Labeled {
		if ok {
			labeled = append(labeled, z)
		}
	}
	type search struct {
		origin graph.NodeID
		start  gtfs.Seconds
	}
	var searches []search
	for _, z := range labeled {
		starts := map[gtfs.Seconds]bool{}
		m.EachTrip(z, func(tr todam.Trip) { starts[tr.Start] = true })
		sorted := make([]gtfs.Seconds, 0, len(starts))
		for s := range starts {
			sorted = append(sorted, s)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, s := range sorted {
			searches = append(searches, search{c.ZoneNode[z], s})
		}
	}
	rt := eng.Router()
	var perr error
	tr.reserve(len(searches))
	allocs, bytes := allocsDuring(func() {
		ns, perr = tr.timeEach("router.profile", len(searches), func(i int) error {
			p, err := rt.ProfileFrom(searches[i].origin, searches[i].start)
			if err == nil {
				p.Release()
			}
			return err
		})
	})
	if perr != nil {
		return nil, perr
	}
	e.set("router.profile_ns", median(ns), len(ns))
	e.set("router.profile_allocs", allocs/float64(len(searches)), len(searches))
	e.set("router.profile_bytes", bytes/float64(len(searches)), len(searches))

	// gtfs and spatial sit under the router and the matrix stage; their
	// calls are too short to time singly.
	ix := gtfs.NewIndex(c.Feed, amPeak.Day)
	stops := ix.StopsWithDepartures()
	times := []gtfs.Seconds{7 * 3600, 7*3600 + 1800, 8 * 3600, 8*3600 + 1800}
	sweep := func() {
		for _, s := range stops {
			for _, t := range times {
				ix.NextDepartures(s, t, router.DefaultOptions().MaxDeparturesPerStop)
			}
		}
	}
	calls := len(stops) * len(times)
	allocs, _ = allocsDuring(func() { ns = tr.timeBatches("gtfs.next_departures", 20, calls, sweep) })
	e.set("gtfs.next_departures_ns", median(ns), 20*calls)
	e.set("gtfs.next_departures_allocs", allocs/float64(20*calls), 20*calls)

	roadItems := make([]spatial.Item, c.Road.NumNodes())
	for i := range roadItems {
		roadItems[i] = spatial.Item{ID: i, Point: c.Road.Point(graph.NodeID(i))}
	}
	roadTree := spatial.NewKDTree(roadItems)
	zoneItems := make([]spatial.Item, len(zonePts))
	for i, p := range zonePts {
		zoneItems[i] = spatial.Item{ID: i, Point: p}
	}
	zoneTree := spatial.NewKDTree(zoneItems)
	points := append(append([]geo.Point(nil), q.POIs...), zonePts...)
	ns = tr.timeBatches("spatial.nearest", 20, len(points), func() {
		for _, p := range points {
			roadTree.Nearest(p)
		}
	})
	e.set("spatial.nearest_ns", median(ns), 20*len(points))

	// access: LabelZone over the canary's labeled zones, POIs welded to
	// road nodes the way the engine welds them.
	poiNode := make([]graph.NodeID, len(q.POIs))
	poiZone := make([]int, len(q.POIs))
	for j, p := range q.POIs {
		poiNode[j] = graph.InvalidNode
		if nb, ok := roadTree.Nearest(p); ok {
			poiNode[j] = graph.NodeID(nb.Item.ID)
		}
		if nb, ok := zoneTree.Nearest(p); ok {
			poiZone[j] = nb.Item.ID
		}
	}
	labeler := &access.Labeler{
		Router: rt, Matrix: m, ZoneNode: c.ZoneNode, POINode: poiNode,
		Cost: q.Cost, Params: router.DefaultCostParams(), MaxAttempts: 3,
	}
	before := readRouterCounters()
	if ns, err = tr.timeEach("access.label_zone", len(labeled), func(i int) error {
		_, _, err := labeler.LabelZone(labeled[i])
		return err
	}); err != nil {
		return nil, err
	}
	if labeler.SPQs != res.Timing.SPQs {
		violations = append(violations, fmt.Sprintf("labeling the canary's zones priced %d trips, the engine priced %d", labeler.SPQs, res.Timing.SPQs))
	}
	e.set("access.label_zone_ns", median(ns), len(ns))
	e.set("access.profiles_per_zone", ratio(float64(readRouterCounters().since(before).profiles), float64(len(labeled))), len(labeled))

	// todam: the canary's matrix again from its own spec.
	if ns, err = tr.timeEach("todam.build", 5, func(int) error {
		_, err := todam.Build(m.Spec)
		return err
	}); err != nil {
		return nil, err
	}
	e.set("todam.build_ns", median(ns), len(ns))

	// features: one origin vector per zone on warm caches, as the query's
	// feature stage computes them.
	ex, err := features.NewExtractor(eng.Forest(), zonePts, eng.Isochrones(), 2)
	if err != nil {
		return nil, err
	}
	ex.Warm(workers)
	vecs := make([][]float64, len(zonePts))
	scratch := features.GetScratch()
	hits0, misses0 := ex.CacheStats()
	if ns, err = tr.timeEach("features.origin_vector", len(zonePts), func(z int) error {
		vecs[z] = make([]float64, features.Dim)
		return ex.OriginVectorInto(vecs[z], scratch, z, m.Row(z), q.POIs, poiZone)
	}); err != nil {
		return nil, err
	}
	features.PutScratch(scratch)
	hits1, misses1 := ex.CacheStats()
	e.set("features.origin_vector_ns", median(ns), len(ns))
	e.set("features.cache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), int(hits1-hits0+misses1-misses0))

	// ml: fit on the canary's labeled rows, predict its unlabeled ones,
	// standardized over all rows as the engine's training stage does.
	var xRows, yRows, xuRows [][]float64
	for z := range zonePts {
		if res.Labeled[z] {
			xRows = append(xRows, vecs[z])
			yRows = append(yRows, []float64{res.MAC[z], res.ACSD[z]})
		} else {
			xuRows = append(xuRows, vecs[z])
		}
	}
	xs, ys, xus, err := standardized(xRows, yRows, xuRows)
	if err != nil {
		return nil, err
	}
	if ns, err = tr.timeEach("ml.fit.OLS", 5, func(int) error { return ml.NewOLS().Fit(xs, ys, xus) }); err != nil {
		return nil, err
	}
	e.set("ml.fit_ns.OLS", median(ns), len(ns))
	mlp := ml.NewMLP(q.Seed)
	if ns, err = tr.timeEach("ml.fit.MLP", probeRepeats, func(int) error {
		mlp = ml.NewMLP(q.Seed)
		return mlp.Fit(xs, ys, xus)
	}); err != nil {
		return nil, err
	}
	e.set("ml.fit_ns.MLP", median(ns), len(ns))
	if ns, err = tr.timeEach("ml.predict", 5, func(int) error {
		_, err := mlp.Predict(xus)
		return err
	}); err != nil {
		return nil, err
	}
	e.set("ml.predict_ns", median(ns), len(ns))

	// bank: deposit and drain a segment's worth of priced trips.
	const bankEntries = 4096
	deps := make([]access.TripDeposit, bankEntries)
	for i := range deps {
		deps[i] = access.TripDeposit{
			Key:   access.TripKey{Zone: i % len(zonePts), Dest: graph.NodeID(i), Start: amPeak.Start + gtfs.Seconds(i)},
			Price: access.TripPrice{Reachable: true, Journey: router.Journey{Depart: amPeak.Start, Arrive: amPeak.Start + 900}},
		}
	}
	bk := bank.New(bank.Config{})
	var depositNS, drainNS []float64
	for r := 0; r < 5; r++ {
		seg := bk.Segment("probe", uint64(r))
		depositNS = append(depositNS, tr.timeBatches("bank.deposit", 1, bankEntries, func() { seg.Deposit(deps) })...)
		drainNS = append(drainNS, tr.timeBatches("bank.drain", 1, bankEntries, func() {
			for i := range deps {
				seg.Drain(deps[i].Key)
			}
		})...)
	}
	e.set("bank.deposit_ns", median(depositNS), 5*bankEntries)
	e.set("bank.drain_ns", median(drainNS), 5*bankEntries)

	// obs: the program's own span tree, on a bank-warm run where it is the
	// largest share it can be.
	warm := q
	warm.Bank = bk.Segment("probe-obs", 0)
	if _, err := eng.Run(warm); err != nil {
		return nil, err
	}
	var plain, traced []float64
	for i := 0; i < overheadPairs; i++ {
		for _, withTrace := range []bool{i%2 == 0, i%2 != 0} {
			ctx := context.Background()
			if withTrace {
				ctx = obs.WithTrace(ctx, obs.NewTrace())
			}
			runtime.GC() // both sides start from the same heap
			start := time.Now()
			if _, err := eng.RunContext(ctx, warm); err != nil {
				return nil, err
			}
			if withTrace {
				traced = append(traced, float64(time.Since(start)))
			} else {
				plain = append(plain, float64(time.Since(start)))
			}
		}
	}
	e.set("obs.trace_overhead_pct", overheadPct(traced, plain), len(plain))

	if err := probeServing(tr, st, e); err != nil {
		return nil, err
	}
	return violations, nil
}

// overheadPct is how much slower the instrumented runs are, from the
// fastest run of each side: garbage collection and scheduling only ever add
// time, so the minimum is the least disturbed observation.
func overheadPct(with, without []float64) float64 {
	return 100 * (sortedCopy(with)[0]/sortedCopy(without)[0] - 1)
}

// standardized mirrors the engine's training-stage preparation: features
// standardized with statistics over labeled and unlabeled rows together,
// targets over the labeled rows.
func standardized(xRows, yRows, xuRows [][]float64) (xs, ys, xus *mat.Dense, err error) {
	stacked, err := mat.FromRows(append(append([][]float64{}, xRows...), xuRows...))
	if err != nil {
		return nil, nil, nil, err
	}
	fm, fs := mat.ColumnStats(stacked)
	std := func(rows [][]float64, means, stds []float64) (*mat.Dense, error) {
		d, err := mat.FromRows(rows)
		if err != nil {
			return nil, err
		}
		if means == nil {
			means, stds = mat.ColumnStats(d)
		}
		return mat.Standardize(d, means, stds)
	}
	if xs, err = std(xRows, fm, fs); err != nil {
		return nil, nil, nil, err
	}
	if xus, err = std(xuRows, fm, fs); err != nil {
		return nil, nil, nil, err
	}
	ys, err = std(yRows, nil, nil)
	return xs, ys, xus, err
}

// probeServing times the serving layer and the registry on the replay's
// stack: the cache-hit path, the miss path's overhead over the engine run,
// fingerprinting, generation acquire, and a scenario apply and revert.
func probeServing(tr *tracer, st *stack, e *emitter) error {
	lt := &localTarget{mgr: st.mgr, tn: st.tn, tr: tr}

	// Four misses on one seed: the first prices the trips, the other three
	// are the cost/model variants answered from the bank.
	first := len(tr.spans)
	var last = headline(canarySeed)
	for _, v := range []struct{ cost, model string }{{"JT", "MLP"}, {"GAC", "MLP"}, {"JT", "OLS"}, {"GAC", "OLS"}} {
		last.Cost, last.Model = v.cost, v.model
		rep, err := lt.query(last)
		if err != nil {
			return err
		}
		if rep.hit {
			return fmt.Errorf("serve probe: %s/%s canary was already cached", v.cost, v.model)
		}
	}
	self := selfTimes(tr.spans)
	var overhead []float64
	for i := first; i < len(tr.spans); i++ {
		if tr.spans[i].Name == "serve.do" {
			overhead = append(overhead, float64(self[i]))
		}
	}
	e.set("serve.do_miss_overhead_ns", median(overhead), len(overhead))

	const hits = 200
	ns, err := tr.timeEach("serve.hit", hits, func(int) error {
		rep, err := lt.query(last)
		if err == nil && !rep.hit {
			err = fmt.Errorf("resident canary missed the result cache")
		}
		return err
	})
	if err != nil {
		return err
	}
	e.set("serve.do_hit_ns", median(ns), len(ns))

	req, err := last.Normalize()
	if err != nil {
		return err
	}
	ns = tr.timeBatches("serve.fingerprint", 5, 1000, func() {
		for i := 0; i < 1000; i++ {
			req.Fingerprint()
		}
	})
	e.set("serve.fingerprint_ns", median(ns), 5000)

	ns = tr.timeBatches("registry.acquire", 5, 1000, func() {
		for i := 0; i < 1000; i++ {
			_, _, release := st.tn.Acquire()
			release()
		}
	})
	e.set("registry.acquire_ns", median(ns), 5000)

	var applyMS, revertMS []float64
	var radius delta.BlastRadius
	for i := 0; i < probeRepeats; i++ {
		sp := tr.start("registry.apply_scenario", root)
		_, applied, _, err := st.tn.ApplyScenario(churnMutation)
		applyMS = append(applyMS, float64(tr.end(sp))/float64(time.Millisecond))
		if err != nil {
			return err
		}
		radius = applied.BlastRadius
		sp = tr.start("registry.revert_scenario", root)
		_, _, err = st.tn.RevertScenario()
		revertMS = append(revertMS, float64(tr.end(sp))/float64(time.Millisecond))
		if err != nil {
			return err
		}
	}
	e.set("registry.apply_scenario_ms", median(applyMS), len(applyMS))
	e.set("registry.revert_scenario_ms", median(revertMS), len(revertMS))
	e.set("delta.zones_touched_ratio", ratio(float64(radius.ZonesTouched), float64(radius.TreesTotal/2)), radius.TreesTotal/2)
	e.set("delta.trees_rebuilt_ratio", ratio(float64(radius.TreesRebuilt), float64(radius.TreesTotal)), radius.TreesTotal)

	// bench: what this file's own instrument costs — the run wrapper's
	// spans and allocation readings around a bank-warm engine run.
	var plain, traced []float64
	for i := 0; i < overheadPairs; i++ {
		for _, on := range []bool{i%2 == 0, i%2 != 0} {
			tr.switchTo(on, false)
			runtime.GC() // both sides start from the same heap
			start := time.Now()
			if _, err := st.run(context.Background(), req); err != nil {
				tr.switchTo(true, false)
				return err
			}
			if on {
				traced = append(traced, float64(time.Since(start)))
			} else {
				plain = append(plain, float64(time.Since(start)))
			}
		}
	}
	tr.switchTo(true, false)
	e.set("bench.trace_overhead_pct", overheadPct(traced, plain), len(plain))
	return nil
}
