// Package core implements the paper's end-to-end solution (Fig. 1): offline
// pre-processing (walking isochrones and transit-hop trees), dynamic
// construction of the gravity-gated TODAM, budgeted labeling with multimodal
// shortest-path queries, online feature generation, semi-supervised
// regression, and inference of the zone-level access measures that answer
// dynamic access queries.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"accessquery/internal/access"
	"accessquery/internal/fault"
	"accessquery/internal/features"
	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/isochrone"
	"accessquery/internal/mat"
	"accessquery/internal/ml"
	"accessquery/internal/obs"
	"accessquery/internal/par"
	"accessquery/internal/router"
	"accessquery/internal/spatial"
	"accessquery/internal/synth"
	"accessquery/internal/todam"
)

// ModelKind selects the SSR model for a query.
type ModelKind string

// The models evaluated in the paper.
const (
	ModelOLS   ModelKind = "OLS"
	ModelMLP   ModelKind = "MLP"
	ModelMT    ModelKind = "MT"
	ModelCOREG ModelKind = "COREG"
	ModelGNN   ModelKind = "GNN"
)

// Extension models beyond the paper's five: kernel ridge regression and
// Laplacian-regularized least squares (classical manifold-regularization
// SSR, the family the paper's deep-kernel baseline reference builds on).
const (
	ModelKRR    ModelKind = "KRR"
	ModelLapRLS ModelKind = "LAPRLS"
)

// AllModels lists the paper's evaluated models in report order.
var AllModels = []ModelKind{ModelOLS, ModelMT, ModelCOREG, ModelMLP, ModelGNN}

// ExtensionModels lists the additional models this implementation
// provides.
var ExtensionModels = []ModelKind{ModelKRR, ModelLapRLS}

// EngineOptions configure offline pre-processing.
type EngineOptions struct {
	// Interval is the time interval v the engine serves (e.g. weekday AM
	// peak).
	Interval gtfs.Interval
	// TauSeconds is the acceptable walk time for isochrones; default 600.
	TauSeconds float64
	// Hops is the transit-hop chaining depth h; default 2.
	Hops int
	// RouterOptions tune the labeling SPQs.
	RouterOptions router.Options
	// Parallelism fans the embarrassingly-parallel per-zone pre-processing
	// stages (isochrone Dijkstras, hop-tree generation, feature-cache
	// warming) across a worker pool, and is the default worker count for a
	// query's feature stage when Query.Parallelism is unset. Values <= 1
	// run serially. Outputs are bit-identical at any setting; servers and
	// CLIs default it to runtime.GOMAXPROCS(0).
	Parallelism int
}

// Engine holds the pre-processed structures for one city and time interval.
type Engine struct {
	City     *synth.City
	Interval gtfs.Interval

	zonePts   []geo.Point
	isos      *isochrone.Set
	forest    *hoptree.Forest
	extractor *features.Extractor
	router    *router.Router

	// zoneTree and roadTree index the zone centroids and road nodes. They
	// are built once here so buildMatrix stops paying an O(road nodes)
	// KD-tree construction on every query (the road tree dominates: a city
	// has orders of magnitude more road nodes than zones or POIs).
	zoneTree *spatial.KDTree
	roadTree *spatial.KDTree

	// parallelism is the engine-level worker knob, the fallback for queries
	// that leave Query.Parallelism unset.
	parallelism int

	// snapSrc records the snapshot file this engine was restored from, nil
	// for engines built from scratch. It also keeps the file mapping alive
	// when the forest and isochrone sections are served via mmap, so it is
	// copied to derived engines, which share those structures.
	snapSrc *SnapshotSource

	// routerOpts are kept so Derive can rebuild the router over a mutated
	// timetable with the same tuning.
	routerOpts router.Options

	// Scenario, when non-nil, records that this engine was derived from a
	// baseline by incremental delta maintenance and carries the cumulative
	// blast-radius summary for provenance (Result.Scenario, explain).
	Scenario *ScenarioSummary

	// PrepDuration records offline pre-processing time (not part of the
	// online query cost in Table II).
	PrepDuration time.Duration

	// adjMu guards adjCache: concurrent queries (e.g. from a serving
	// layer's worker pool) may race to build the GNN adjacency.
	adjMu    sync.Mutex
	adjCache *ml.SparseAdj
}

// NewEngine runs the offline phase over a city: welding checks, walking
// isochrones for every zone, transit-hop forest generation, and router
// construction.
func NewEngine(city *synth.City, opts EngineOptions) (*Engine, error) {
	if city == nil {
		return nil, fmt.Errorf("core: nil city")
	}
	if opts.Interval.End <= opts.Interval.Start {
		return nil, fmt.Errorf("core: empty interval")
	}
	tau := opts.TauSeconds
	if tau <= 0 {
		tau = isochrone.DefaultTauSeconds
	}
	hops := opts.Hops
	if hops <= 0 {
		hops = 2
	}
	workers := par.Workers(opts.Parallelism)
	mParallelism.Set(float64(workers))
	start := time.Now()
	zonePts := make([]geo.Point, len(city.Zones))
	nodes := make([]graph.NodeID, len(city.Zones))
	for i, z := range city.Zones {
		zonePts[i] = z.Centroid
		nodes[i] = city.ZoneNode[i]
	}
	t0 := time.Now()
	isos, err := isochrone.ComputeSetParallel(city.Road, zonePts, nodes, tau, workers)
	if err != nil {
		return nil, fmt.Errorf("core: isochrones: %w", err)
	}
	prepIsochrones.ObserveDuration(time.Since(t0))
	builder, err := hoptree.NewBuilder(city.Feed, opts.Interval, zonePts, isos)
	if err != nil {
		return nil, fmt.Errorf("core: hop trees: %w", err)
	}
	// Chaos-test injection site for the offline hop-tree build.
	if err := fault.Check(fault.SiteHopTree); err != nil {
		return nil, fmt.Errorf("core: hop trees: %w", err)
	}
	t0 = time.Now()
	forest, err := hoptree.BuildForestParallel(builder, workers)
	if err != nil {
		return nil, fmt.Errorf("core: hop trees: %w", err)
	}
	prepHopTrees.ObserveDuration(time.Since(t0))
	extractor, err := features.NewExtractor(forest, zonePts, isos, hops)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ix := gtfs.NewIndex(city.Feed, opts.Interval.Day)
	rt, err := router.New(city.Road, ix, city.StopNode, opts.RouterOptions)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	t0 = time.Now()
	zoneTree, roadTree := buildSpatialIndexes(city, zonePts)
	prepIndexes.ObserveDuration(time.Since(t0))
	e := &Engine{
		City:        city,
		Interval:    opts.Interval,
		zonePts:     zonePts,
		isos:        isos,
		forest:      forest,
		extractor:   extractor,
		router:      rt,
		zoneTree:    zoneTree,
		roadTree:    roadTree,
		parallelism: workers,
		routerOpts:  opts.RouterOptions,
	}
	e.PrepDuration = time.Since(start)
	prepTotal.ObserveDuration(e.PrepDuration)
	return e, nil
}

// buildSpatialIndexes constructs the zone-centroid and road-node KD-trees
// that buildMatrix previously rebuilt on every query.
func buildSpatialIndexes(city *synth.City, zonePts []geo.Point) (zoneTree, roadTree *spatial.KDTree) {
	items := make([]spatial.Item, len(zonePts))
	for i, p := range zonePts {
		items[i] = spatial.Item{ID: i, Point: p}
	}
	zoneTree = spatial.NewKDTree(items)
	roadItems := make([]spatial.Item, city.Road.NumNodes())
	for i := range roadItems {
		roadItems[i] = spatial.Item{ID: i, Point: city.Road.Point(graph.NodeID(i))}
	}
	roadTree = spatial.NewKDTree(roadItems)
	return zoneTree, roadTree
}

// zonePointsOf extracts zone centroids in index order.
func zonePointsOf(city *synth.City) []geo.Point {
	pts := make([]geo.Point, len(city.Zones))
	for i, z := range city.Zones {
		pts[i] = z.Centroid
	}
	return pts
}

// Forest exposes the transit-hop forest (for persistence and inspection).
func (e *Engine) Forest() *hoptree.Forest { return e.forest }

// WarmFeatureCaches populates the extractor's per-origin lazy caches (hop
// maps and reach fractions) for every zone across a worker pool, moving
// those first-query cache misses into startup.
// Cached values are deterministic, so warming never changes query results.
func (e *Engine) WarmFeatureCaches(workers int) {
	e.extractor.Warm(par.Workers(workers))
}

// Router exposes the multimodal router (for example applications that need
// raw journeys).
func (e *Engine) Router() *router.Router { return e.router }

// Query describes one dynamic access query.
type Query struct {
	// POIs are the destination points. Use POIsOf to pull a category from
	// the city.
	POIs []geo.Point
	// POIWeights, when non-nil, re-weights each POI's attractiveness in the
	// TODAM gravity gate (indexed like POIs). Use POIWeightsOf to pull a
	// category's scenario weights from the city; nil means all 1.
	POIWeights []float64
	// Cost is JT or GAC.
	Cost access.CostKind
	// CostParams price GAC journeys; zero value means defaults.
	CostParams router.CostParams
	// Budget is the labeling budget β in (0, 1].
	Budget float64
	// Model selects the SSR model.
	Model ModelKind
	// SamplesPerHour sets the TODAM start-time rate; default 30 (|R|=60
	// over a 2-hour interval, as in the paper's Table I).
	SamplesPerHour int
	// Attractiveness configures the gravity gate; zero value means
	// defaults.
	Attractiveness todam.Attractiveness
	// Sampling selects how the labeled set is drawn; default SampleRandom
	// (the paper's method). Coverage and stratified sampling implement the
	// active-learning direction the paper's conclusion points to.
	Sampling SamplingStrategy
	// Workers parallelizes labeling across goroutines; 0 or 1 labels
	// serially. Results are identical regardless of worker count.
	Workers int
	// Parallelism fans the per-zone feature stage (step 4) across a worker
	// pool. 0 inherits the engine's Parallelism; values <= 1 after that
	// fallback run serially. Results are identical regardless of the
	// setting, so it deliberately does not participate in serving-layer
	// fingerprints.
	Parallelism int
	// Seed drives sampling and model initialization.
	Seed int64
	// Bank, when non-nil, is the cross-query priced-trip store for this
	// engine generation (see internal/bank): labeling drains it before
	// spending SPQ budget and deposits what it prices after a clean run.
	// Results are identical with or without it, so like Workers and
	// Parallelism it does not participate in serving-layer fingerprints.
	// The caller must hand a segment scoped to the exact engine the query
	// runs on ({city, epoch}); a bank from another generation would serve
	// journeys off a different timetable.
	Bank access.TripBank
}

// Serving-layer defaults, shared with callers (e.g. internal/serve) so a
// request with omitted fields fingerprints identically to one that spells
// the defaults out.
const (
	// DefaultBudget is the labeling budget β used when a query leaves it
	// unset (the paper's headline operating point).
	DefaultBudget = 0.05
	// DefaultSamplesPerHour is the TODAM start-time sampling rate r
	// (|R| = 60 over a 2-hour interval, Table I).
	DefaultSamplesPerHour = 30
)

// POIsOf extracts a category's POI points from the city.
func POIsOf(city *synth.City, cat synth.POICategory) []geo.Point {
	pois := city.POIs[cat]
	out := make([]geo.Point, len(pois))
	for i, p := range pois {
		out[i] = p.Point
	}
	return out
}

// POIWeightsOf extracts a category's scenario POI weights from the city,
// or nil when every weight is the default 1 (the common case — only
// scenario deltas ever set weights, and nil keeps the TODAM spec identical
// to the unweighted one).
func POIWeightsOf(city *synth.City, cat synth.POICategory) []float64 {
	pois := city.POIs[cat]
	weighted := false
	out := make([]float64, len(pois))
	for i, p := range pois {
		w := p.Weight
		if w == 0 {
			w = 1
		}
		if w != 1 {
			weighted = true
		}
		out[i] = w
	}
	if !weighted {
		return nil
	}
	return out
}

func (q Query) withDefaults() Query {
	if q.SamplesPerHour <= 0 {
		q.SamplesPerHour = DefaultSamplesPerHour
	}
	if q.Attractiveness.DecayMeters <= 0 {
		q.Attractiveness = todam.DefaultAttractiveness()
	}
	if q.CostParams == (router.CostParams{}) {
		q.CostParams = router.DefaultCostParams()
	}
	if q.Model == "" {
		q.Model = ModelMLP
	}
	return q
}

// Timing decomposes a query's online cost, the quantities Table II
// compares.
type Timing struct {
	Matrix   time.Duration
	Features time.Duration
	Labeling time.Duration
	Training time.Duration
	// SPQs counts priced trips (shortest-path-query equivalents).
	SPQs int64
	// SPQRetries counts profile searches re-attempted after transient
	// failures; SPQAbandoned counts those given up after the retry cap.
	// Together they account for every transient SPQ failure the run saw.
	SPQRetries   int64
	SPQAbandoned int64
	// BankDrained counts trips answered from the cross-query label bank
	// instead of being priced; BankDeposited the priced trips the run
	// deposited back. Both are zero when no bank is attached.
	BankDrained   int64
	BankDeposited int64
	// FeatureCacheHits and FeatureCacheMisses are the feature extractor's
	// lazy-cache traffic during the features stage (approximate when other
	// queries share the extractor concurrently).
	FeatureCacheHits   int64
	FeatureCacheMisses int64
}

// Total returns the end-to-end online time.
func (t Timing) Total() time.Duration {
	return t.Matrix + t.Features + t.Labeling + t.Training
}

// Result is the answer to an access query: per-zone measures, with
// Labeled marking zones priced by SPQs (ground truth) versus inferred. It
// is also the run's one typed record of what the run did — matrix sizes,
// SPQ, bank and cache counts, the fitted model and its diagnostics — from
// which the explain report is projected; a trace records only where the
// time went.
type Result struct {
	MAC     []float64
	ACSD    []float64
	Valid   []bool
	Labeled []bool
	// WalkOnlyShare is the labeled-trips share that used no transit.
	WalkOnlyShare float64
	Classes       []access.Class
	// Fairness is Jain's index over valid zones' MAC.
	Fairness float64
	Timing   Timing
	// Matrix is the sampled TODAM the run priced (megabytes at city scale).
	// Engine runs return it to library callers; the serving layer drops it
	// before it retains a result and keeps MatrixStats.
	Matrix *todam.Matrix
	// MatrixStats summarizes Matrix and stays valid without it.
	MatrixStats MatrixStats
	// Degraded is non-nil when the run climbed the degradation ladder
	// instead of failing under deadline or fault pressure; it reports which
	// rungs fired and why. Successful retries alone do not mark a result
	// degraded — only lost fidelity does.
	Degraded *DegradedReport
	// Model is the model the training stage fitted: the query's, or OLS
	// after a model_fallback rung. Empty when the run stopped before
	// training. Fit holds that fit's diagnostics.
	Model ModelKind
	Fit   FitStats
	// Bank reports whether a label bank was attached, telling "no bank"
	// apart from a bank that saw no traffic.
	Bank bool
	// Scenario is the delta provenance of the engine that ran the query,
	// nil on a baseline engine.
	Scenario *ScenarioSummary
	// City and Epoch identify the tenant engine generation that computed
	// the result. The engine itself leaves them zero; a multi-tenant
	// serving layer (serve.RegistryRunner) stamps them after the run so
	// cached and stale answers stay attributable to the exact engine that
	// produced them across hot-swaps.
	City  string `json:"city,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// MatrixStats are the sizes of a run's sampled TODAM that responses report.
type MatrixStats struct {
	// Trips is the number of sampled trips, FullTrips the size of the
	// unsampled matrix, ReductionPct the saving between them in percent.
	Trips        int64
	FullTrips    int64
	ReductionPct float64
}

// setMatrix attaches the run's matrix and its summary.
func (r *Result) setMatrix(m *todam.Matrix) {
	r.Matrix = m
	r.MatrixStats = MatrixStats{Trips: m.Size(), FullTrips: m.FullSize(), ReductionPct: m.Reduction()}
}

// Run answers a dynamic access query with semi-supervised regression.
func (e *Engine) Run(q Query) (*Result, error) {
	return e.RunContext(context.Background(), q)
}

// RunContext answers a dynamic access query, aborting between zone batches
// when ctx is cancelled so a timed-out or abandoned query stops burning CPU
// mid-SPQ-loop. On cancellation it returns ctx.Err() (possibly wrapped).
//
// Every run feeds the process-wide observability registry: per-stage
// latency histograms, the end-to-end query histogram, and SPQ counters.
// When ctx carries an obs.Trace (see obs.WithTrace), the run also builds a
// span tree — a "query" span with one timed child per pipeline stage — for
// per-request explain reports (see Explain). Without a trace the same code
// path allocates nothing extra.
func (e *Engine) RunContext(ctx context.Context, q Query) (*Result, error) {
	mQueries.Inc()
	r := e.newRun(q)
	defer r.release()
	ctx, sp := obs.Start(ctx, "query", mQuerySeconds)
	res, err := r.answer(ctx)
	sp.End()
	if err != nil {
		mQueryErrors.Inc()
	}
	return res, err
}

// Degradation-ladder tuning.
const (
	// spqMaxAttempts bounds transient-failure retries per profile search.
	spqMaxAttempts = 3
	// labelingDeadlineShare is the percentage of the deadline budget
	// labeling may consume before being truncated, reserving the tail for
	// feature generation and training.
	labelingDeadlineShare = 65
	// trainingMinSharePct is the minimum percentage of the deadline that
	// must remain when training starts for an iterative model to be worth
	// fitting; below it the run falls back to OLS.
	trainingMinSharePct = 25
)

// run is one query's pass through the pipeline of Fig. 1: matrix → sample
// → label → features → train → finish. Each stage is one method that opens
// one span (finish opens none) and sets its own Timing field, if it has
// one; the entry points (RunContext, GroundTruthContext, RunOD,
// FeatureCosts) are compositions of the stages they need. Records are
// pooled so a warm server reuses the feature arena across queries.
type run struct {
	e   *Engine
	q   Query // defaulted
	res *Result

	// matrix stage: the sampled TODAM and the POI welds.
	m        *todam.Matrix
	poiNodes []graph.NodeID
	poiZones []int

	// zones is the set L to label, ascending; od labels it at pair level.
	zones []int
	od    bool
	// label stage: the outcome, the zones it labeled (ascending) and their
	// summed walk-only shares.
	lo        labelOutcome
	labeled   []int
	walkShare float64

	// Deadline split (zero without a ctx deadline): labeling is truncated
	// at stopBy; the tail up to deadline is reserved for features and
	// training.
	deadline, stopBy time.Time
	dlTotal          time.Duration
	// deg collects the fired degradation rungs.
	deg *DegradedReport

	// features stage: one flat backing array holds every zone's feature
	// vector and vecs the row headers over it (pooled with the record), then
	// the rows partitioned into labeled (x, y) and unlabeled (xu) sets.
	flat      []float64
	vecs      [][]float64
	x, y, xu  [][]float64
	unlabeled []int
}

var runPool = sync.Pool{New: func() interface{} { return new(run) }}

// newRun takes a record from the pool for q with its defaults applied and
// an empty result sized to the engine's zones.
func (e *Engine) newRun(q Query) *run {
	r := runPool.Get().(*run)
	nz := len(e.zonePts)
	r.e, r.q = e, q.withDefaults()
	r.res = &Result{
		MAC:     make([]float64, nz),
		ACSD:    make([]float64, nz),
		Valid:   make([]bool, nz),
		Labeled: make([]bool, nz),
	}
	return r
}

// release returns the record to the pool, keeping only the feature arena.
// Nothing the caller holds references it: training copies rows into
// matrices (mat.FromRows) and the result owns its own slices.
func (r *run) release() {
	*r = run{flat: r.flat, vecs: r.vecs}
	runPool.Put(r)
}

// validate rejects a query no stage can answer. An unknown model is a
// caller mistake, not infrastructure trouble; it must fail fast here rather
// than be absorbed by the OLS fallback rung.
func (r *run) validate() error {
	q := r.q
	if len(q.POIs) == 0 {
		return fmt.Errorf("core: query has no POIs")
	}
	if q.Budget <= 0 || q.Budget > 1 {
		return fmt.Errorf("core: budget %f outside (0, 1]", q.Budget)
	}
	switch q.Model {
	case ModelOLS, ModelMLP, ModelMT, ModelCOREG, ModelGNN, ModelKRR, ModelLapRLS:
		return nil
	}
	return fmt.Errorf("core: unknown model %q", q.Model)
}

// answer runs every stage under the degradation ladder: labeling losses
// shrink the budget, a short tail or a failed fit falls back to OLS, and a
// deadline that expires before training yields the labeled zones alone.
func (r *run) answer(ctx context.Context) (*Result, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		r.deadline = dl
		r.dlTotal = time.Until(dl)
		r.stopBy = time.Now().Add(r.dlTotal * labelingDeadlineShare / 100)
	}
	if err := r.matrix(ctx); err != nil {
		return nil, err
	}
	if err := r.sample(ctx); err != nil {
		return nil, err
	}
	if err := r.label(ctx); err != nil {
		return nil, err
	}
	if r.lo.failed > 0 || r.lo.truncated > 0 {
		r.degrade(RungBudget, fmt.Sprintf("labeled %d of %d budgeted zones (%d failed after retries, %d truncated at the deadline)",
			len(r.labeled), len(r.zones), r.lo.failed, r.lo.truncated))
	}
	if len(r.labeled) < 2 {
		if r.deg != nil {
			return r.partial(fmt.Sprintf("only %d zones labeled under pressure; skipping inference for the remaining %d",
				len(r.labeled), len(r.e.zonePts)-len(r.labeled))), nil
		}
		return nil, fmt.Errorf("core: only %d labelable zones at budget %.3f; raise the budget", len(r.labeled), r.q.Budget)
	}
	if err := ctx.Err(); err != nil {
		return r.interrupted(err, "deadline expired before feature generation")
	}
	if err := r.features(ctx); err != nil {
		return r.interrupted(err, "deadline expired during feature generation")
	}
	if err := ctx.Err(); err != nil {
		return r.interrupted(err, "deadline expired before training")
	}
	if err := r.train(ctx); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// degrade fires a ladder rung, counting it once per run.
func (r *run) degrade(rung DegradationRung, reason string) {
	if r.deg == nil {
		r.deg = &DegradedReport{BudgetRequested: r.q.Budget, ModelRequested: string(r.q.Model)}
	}
	if !r.deg.Has(rung) {
		degradedCounter(rung, r.e.City.Name).Inc()
	}
	r.deg.fire(rung, reason)
}

// partial finalizes a labeled-only result in place of an error.
func (r *run) partial(reason string) *Result {
	r.degrade(RungPartial, reason)
	return r.finish()
}

// interrupted answers a run stopped by ctx: a passed deadline yields the
// partial result, any other error fails the run.
func (r *run) interrupted(err error, reason string) (*Result, error) {
	if errors.Is(err, context.DeadlineExceeded) {
		return r.partial(reason), nil
	}
	return nil, err
}

// matrix builds the gravity TODAM (step 1).
func (r *run) matrix(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, sp := obs.Start(ctx, "matrix", stageMatrix)
	m, poiNodes, poiZones, err := r.e.buildMatrix(r.q)
	if err != nil {
		sp.End()
		return err
	}
	r.m, r.poiNodes, r.poiZones = m, poiNodes, poiZones
	r.res.setMatrix(m)
	r.res.Timing.Matrix = sp.End()
	return nil
}

// sample draws the labeled set L of ⌊β·|Z|⌉ zones (at least 2) by the
// query's strategy (step 2).
func (r *run) sample(ctx context.Context) error {
	_, sp := obs.Start(ctx, "sampling", stageSampling)
	defer sp.End()
	nz := len(r.e.zonePts)
	nl := int(float64(nz)*r.q.Budget + 0.5)
	if nl < 2 {
		nl = 2
	}
	if nl > nz {
		nl = nz
	}
	var err error
	r.zones, err = sampleZones(r.q.Sampling, r.e.zonePts, nl, r.q.Seed)
	return err
}

// label prices the zones of L by SPQs (step 3), feeds the SPQ counters —
// on the error path too, since the SPQs priced before a failure were real
// router work — and records the labeled zones' measures in the result. The
// bank receives the priced trips only after a full-fidelity stage.
func (r *run) label(ctx context.Context) error {
	_, sp := obs.Start(ctx, "labeling", stageLabeling)
	lo, err := r.labelZones(ctx)
	mSPQs.Add(lo.spqs)
	if lo.retries > 0 {
		mSPQRetries.Add(lo.retries)
	}
	if lo.abandoned > 0 {
		mSPQAbandoned.Add(lo.abandoned)
	}
	t := &r.res.Timing
	t.SPQs, t.SPQRetries, t.SPQAbandoned, t.BankDrained = lo.spqs, lo.retries, lo.abandoned, lo.drained
	if err != nil {
		sp.End()
		return err
	}
	r.lo = lo
	res := r.res
	for i, zone := range r.zones {
		zm := lo.measures[i]
		if zm == nil {
			continue
		}
		res.MAC[zone] = zm.MAC
		res.ACSD[zone] = zm.ACSD
		res.Valid[zone] = true
		res.Labeled[zone] = true
		r.walkShare += zm.WalkOnlyShare
		r.labeled = append(r.labeled, zone)
	}
	if r.q.Bank != nil {
		// Deposit only after a full-fidelity stage: a degraded run (failed
		// or truncated zones) may have been shaped by faults or deadline
		// pressure, and nothing it priced is allowed to outlive it.
		res.Bank = true
		if lo.failed == 0 && lo.truncated == 0 {
			r.q.Bank.Deposit(lo.deposits)
			res.Timing.BankDeposited = int64(len(lo.deposits))
		}
	}
	res.Timing.Labeling = sp.End()
	return nil
}

// features generates every zone's origin-level vector (step 4), fanned
// across the query's worker pool. Vectors land in an index-addressed arena
// and are partitioned into labeled/unlabeled rows in ascending zone order
// afterwards, so the matrices are bit-identical to a serial loop's
// regardless of worker scheduling.
func (r *run) features(ctx context.Context) error {
	_, sp := obs.Start(ctx, "features", stageFeatures)
	e, nz, dim := r.e, len(r.e.zonePts), features.Dim
	r.flat = slices.Grow(r.flat[:0], nz*dim)[:nz*dim]
	r.vecs = slices.Grow(r.vecs[:0], nz)[:nz]
	for z := range r.vecs {
		r.vecs[z] = r.flat[z*dim : (z+1)*dim : (z+1)*dim]
	}
	fw := r.q.Parallelism
	if fw == 0 {
		fw = e.parallelism
	}
	// Snapshot the extractor's lazy-cache counters around the stage for
	// this query's hit/miss delta.
	hits0, misses0 := e.extractor.CacheStats()
	if err := par.ForContext(ctx, fw, nz, func(zone int) error {
		fs := features.GetScratch()
		err := e.extractor.OriginVectorInto(r.vecs[zone], fs, zone, r.m.Row(zone), r.q.POIs, r.poiZones)
		features.PutScratch(fs)
		return err
	}); err != nil {
		sp.End()
		return err
	}
	hits1, misses1 := e.extractor.CacheStats()
	r.res.Timing.FeatureCacheHits, r.res.Timing.FeatureCacheMisses = hits1-hits0, misses1-misses0
	for zone, v := range r.vecs {
		if r.res.Labeled[zone] {
			r.x = append(r.x, v)
			r.y = append(r.y, []float64{r.res.MAC[zone], r.res.ACSD[zone]})
		} else {
			r.unlabeled = append(r.unlabeled, zone)
			r.xu = append(r.xu, v)
		}
	}
	r.res.Timing.Features = sp.End()
	return nil
}

// train fits the model and infers the unlabeled zones (step 5). Under
// deadline pressure an iterative model is not worth starting with only the
// tail of the budget left: it falls back to OLS, whose closed-form fit is
// effectively instant, as it does when the configured model fails.
func (r *run) train(ctx context.Context) error {
	q := r.q
	if !r.deadline.IsZero() && q.Model != ModelOLS {
		if remaining := time.Until(r.deadline); remaining < r.dlTotal*trainingMinSharePct/100 {
			r.degrade(RungModelFallback, fmt.Sprintf("%s of the %s deadline remained at training; fitting OLS instead of %s",
				remaining.Round(time.Millisecond), r.dlTotal.Round(time.Millisecond), q.Model))
			q.Model = ModelOLS
		}
	}
	_, sp := obs.Start(ctx, "training", stageTraining)
	preds, fit, err := r.e.trainPredict(q, r.labeled, r.unlabeled, r.x, r.y, r.xu)
	if err != nil && q.Model != ModelOLS {
		// The configured model failed; one rung down, OLS answers the query
		// rather than failing it.
		r.degrade(RungModelFallback, fmt.Sprintf("%s failed (%v); refitting with OLS", q.Model, err))
		q.Model = ModelOLS
		preds, fit, err = r.e.trainPredict(q, r.labeled, r.unlabeled, r.x, r.y, r.xu)
	}
	if err != nil {
		sp.End()
		return err
	}
	for i, zone := range r.unlabeled {
		mac := preds.At(i, 0)
		acsd := preds.At(i, 1)
		if mac < 0 {
			mac = 0
		}
		if acsd < 0 {
			acsd = 0
		}
		r.res.MAC[zone] = mac
		r.res.ACSD[zone] = acsd
		r.res.Valid[zone] = true
	}
	r.res.Model, r.res.Fit = q.Model, fit
	r.res.Timing.Training = sp.End()
	return nil
}

// finish computes the labeled zones' walk-only share, stamps the
// degradation report's accounting once the labeled set is final and the
// engine's scenario provenance, and folds the measures into classes and
// fairness.
func (r *run) finish() *Result {
	res := r.res
	res.Scenario = r.e.Scenario
	if n := len(r.labeled); n > 0 {
		res.WalkOnlyShare = r.walkShare / float64(n)
	}
	if d := r.deg; d != nil {
		d.BudgetEffective = float64(len(r.labeled)) / float64(len(r.e.zonePts))
		d.ZonesFailed = r.lo.failed
		d.ZonesTruncated = r.lo.truncated
		d.SPQRetries = r.lo.retries
		d.SPQAbandoned = r.lo.abandoned
		d.ModelUsed = string(res.Model)
		res.Degraded = d
	}
	r.e.finishMeasures(res)
	return res
}

// finishMeasures computes classes and fairness over valid zones.
func (e *Engine) finishMeasures(res *Result) {
	var mac, acsd []float64
	var idx []int
	for i, ok := range res.Valid {
		if ok {
			mac = append(mac, res.MAC[i])
			acsd = append(acsd, res.ACSD[i])
			idx = append(idx, i)
		}
	}
	res.Classes = make([]access.Class, len(res.MAC))
	classes, err := access.Classify(mac, acsd)
	if err == nil {
		for k, i := range idx {
			res.Classes[i] = classes[k]
		}
	}
	res.Fairness = access.JainIndex(mac)
}

// labelOutcome carries labeling's per-zone measures (nil where the zone
// had no reachable trips or was lost to pressure) plus the run's SPQ and
// pressure accounting.
type labelOutcome struct {
	measures []*access.ZoneMeasure
	// pairs holds each measured zone's pair-level aggregates at OD
	// granularity; nil otherwise.
	pairs     [][]access.PairMeasure
	spqs      int64
	retries   int64
	abandoned int64
	// drained counts trips satisfied from the bank (no SPQ spent);
	// deposits buffers the cleanly-labeled zones' priced trips. The caller
	// flushes deposits to the bank only when the whole stage finished at
	// full fidelity — degraded or partial runs never deposit.
	drained  int64
	deposits []access.TripDeposit
	// failed counts zones given up after transient SPQ failures exhausted
	// their retries; truncated counts zones never priced because the
	// deadline budget ran out.
	failed    int
	truncated int
}

// errLabelingStopped halts labeling's dispatch once the truncation deadline
// has passed; labelZones never returns it.
var errLabelingStopped = errors.New("core: labeling truncated")

// labelZones prices r.zones on q.Workers goroutines and folds the outcome
// in zone order. Every zone gets its own labeler and an index-addressed
// slot, so measures, counters and bank deposits are the same at any worker
// count. Labeling dominates online query cost, so ctx and the stopBy
// truncation deadline are checked before every zone: a cancelled query
// stops within one zone's worth of SPQs per worker. At OD granularity each
// zone is labeled with the LabelZonePairs fold and its measure aggregated
// from the pairs.
//
// Pressure is absorbed rather than escalated: a zone whose SPQs keep
// failing transiently after retries is skipped and counted in failed, and
// zones not priced before stopBy (or the ctx deadline) are counted in
// truncated with a nil error — the caller decides what the loss costs.
// Only non-transient errors and plain cancellation propagate; a
// non-transient error is the first in zone order.
//
// The SPQ count is reported even on the error paths: the queries priced
// before a failure or cancellation were real router work.
func (r *run) labelZones(ctx context.Context) (labelOutcome, error) {
	e, q, stopBy := r.e, r.q, r.stopBy
	type slot struct {
		l     *access.Labeler // nil for a zone never started
		m     access.ZoneMeasure
		pairs []access.PairMeasure
		ok    bool
		err   error
	}
	slots := make([]slot, len(r.zones))
	err := par.ForContext(ctx, q.Workers, len(r.zones), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !stopBy.IsZero() && time.Now().After(stopBy) {
			return errLabelingStopped
		}
		s := &slots[i]
		s.l = &access.Labeler{
			Router: e.router, Matrix: r.m, ZoneNode: e.City.ZoneNode,
			POINode: r.poiNodes, Cost: q.Cost, Params: q.CostParams,
			MaxAttempts: spqMaxAttempts, Deadline: stopBy, Bank: q.Bank,
		}
		if r.od {
			s.pairs, s.err = s.l.LabelZonePairs(r.zones[i])
			s.m, s.ok = pairZoneMeasure(s.pairs)
		} else {
			s.m, s.ok, s.err = s.l.LabelZone(r.zones[i])
		}
		switch {
		case errors.Is(s.err, context.DeadlineExceeded):
			// The labeler's own deadline fired mid-zone: this zone and the
			// rest are lost to truncation.
			return errLabelingStopped
		case s.err == nil || fault.IsTransient(s.err):
			return nil
		default:
			return s.err
		}
	})
	lo := labelOutcome{measures: make([]*access.ZoneMeasure, len(r.zones))}
	if r.od {
		lo.pairs = make([][]access.PairMeasure, len(r.zones))
	}
	var hard error
	for i := range slots {
		s := &slots[i]
		if s.l == nil {
			lo.truncated++
			continue
		}
		lo.spqs += s.l.SPQs
		lo.retries += s.l.Retries
		lo.abandoned += s.l.Abandoned
		lo.drained += s.l.Drained
		lo.deposits = append(lo.deposits, s.l.PendingDeposits...) // empty unless the zone completed
		switch {
		case s.err == nil:
			if s.ok {
				lo.measures[i] = &s.m
				if r.od {
					lo.pairs[i] = s.pairs
				}
			}
		case errors.Is(s.err, context.DeadlineExceeded):
			lo.truncated++
		case fault.IsTransient(s.err):
			lo.failed++
		case hard == nil:
			hard = s.err
		}
	}
	switch {
	case hard != nil:
		return lo, hard
	case err == nil, errors.Is(err, errLabelingStopped), errors.Is(err, context.DeadlineExceeded):
		return lo, nil
	default:
		return lo, err
	}
}

// FitStats are the training stage's diagnostics: the model's own
// convergence report (zero for a model that gives none) and the in-sample
// fit on the labeled zones in original target units, per target column
// (MAC, ACSD). RMSE and R2 stay zero when the model cannot re-predict its
// training rows.
type FitStats struct {
	ml.TrainInfo
	RMSE [2]float64
	R2   [2]float64
}

// trainPredict standardizes, fits the selected model, and returns
// de-standardized predictions for the unlabeled zones plus the fit's
// diagnostics.
func (e *Engine) trainPredict(q Query, labeled, unlabeled []int, xRows, yRows, xuRows [][]float64) (*mat.Dense, FitStats, error) {
	var fit FitStats
	x, err := mat.FromRows(xRows)
	if err != nil {
		return nil, fit, err
	}
	y, err := mat.FromRows(yRows)
	if err != nil {
		return nil, fit, err
	}
	xu, err := mat.FromRows(xuRows)
	if err != nil {
		return nil, fit, err
	}
	if xu.Rows() == 0 {
		return mat.New(0, y.Cols()), fit, nil
	}
	// Standardize features with statistics over L ∪ U: features exist for
	// every zone, and using only the labeled subset can leave a column
	// degenerate there (zero variance) while it varies wildly across the
	// unlabeled zones, exploding predictions.
	stacked, err := mat.FromRows(append(append([][]float64{}, xRows...), xuRows...))
	if err != nil {
		return nil, fit, err
	}
	fm, fs := mat.ColumnStats(stacked)
	xs, err := mat.Standardize(x, fm, fs)
	if err != nil {
		return nil, fit, err
	}
	xus, err := mat.Standardize(xu, fm, fs)
	if err != nil {
		return nil, fit, err
	}
	tm, ts := mat.ColumnStats(y)
	ys, err := mat.Standardize(y, tm, ts)
	if err != nil {
		return nil, fit, err
	}
	model, err := e.newModel(q, labeled, unlabeled)
	if err != nil {
		return nil, fit, err
	}
	if err := model.Fit(xs, ys, xus); err != nil {
		return nil, fit, fmt.Errorf("core: fitting %s: %w", q.Model, err)
	}
	preds, err := model.Predict(xus)
	if err != nil {
		return nil, fit, fmt.Errorf("core: predicting with %s: %w", q.Model, err)
	}
	// De-standardize targets.
	out := mat.New(preds.Rows(), preds.Cols())
	for i := 0; i < preds.Rows(); i++ {
		for j := 0; j < preds.Cols(); j++ {
			out.Set(i, j, preds.At(i, j)*ts[j]+tm[j])
		}
	}
	if d, ok := model.(ml.Diagnoser); ok {
		fit.TrainInfo = d.TrainInfo()
	}
	fit.inSample(model, xs, y, tm, ts)
	return out, fit, nil
}

// inSample fills the RMSE/R² by predicting the labeled rows and comparing,
// in original units, against the true targets. The GNN is transductive —
// Predict only accepts the unlabeled rows — so its cached labeled-node
// predictions are used instead. Diagnostics are best-effort: a model that
// cannot re-predict its training rows leaves them zero rather than failing
// the query.
func (d *FitStats) inSample(model ml.Model, xs, y *mat.Dense, tm, ts []float64) {
	var preds *mat.Dense
	var err error
	if g, ok := model.(*ml.GNN); ok {
		preds, err = g.LabeledPredictions()
	} else {
		preds, err = model.Predict(xs)
	}
	if err != nil || preds == nil || preds.Rows() != y.Rows() || preds.Cols() != y.Cols() || y.Cols() > len(d.RMSE) {
		return
	}
	n := float64(y.Rows())
	for j := 0; j < y.Cols(); j++ {
		var mean float64
		for i := 0; i < y.Rows(); i++ {
			mean += y.At(i, j)
		}
		mean /= n
		var ssRes, ssTot float64
		for i := 0; i < y.Rows(); i++ {
			p := preds.At(i, j)*ts[j] + tm[j]
			r := y.At(i, j) - p
			ssRes += r * r
			t := y.At(i, j) - mean
			ssTot += t * t
		}
		d.RMSE[j] = math.Sqrt(ssRes / n)
		if ssTot > 0 {
			d.R2[j] = 1 - ssRes/ssTot
		}
	}
}

func (e *Engine) newModel(q Query, labeled, unlabeled []int) (ml.Model, error) {
	switch q.Model {
	case ModelOLS:
		return ml.NewOLS(), nil
	case ModelMLP:
		return ml.NewMLP(q.Seed), nil
	case ModelMT:
		return ml.NewMeanTeacher(q.Seed), nil
	case ModelCOREG:
		return ml.NewCOREG(q.Seed), nil
	case ModelKRR:
		return ml.NewKRR(), nil
	case ModelLapRLS:
		return ml.NewLapRLS(), nil
	case ModelGNN:
		adj, err := e.adjacency()
		if err != nil {
			return nil, err
		}
		g := ml.NewGNN(q.Seed)
		g.SetGraph(adj, labeled, unlabeled)
		return g, nil
	default:
		return nil, fmt.Errorf("core: unknown model %q", q.Model)
	}
}

// adjacency lazily builds the Gaussian-thresholded zone adjacency the GNN
// uses.
func (e *Engine) adjacency() (*ml.SparseAdj, error) {
	e.adjMu.Lock()
	defer e.adjMu.Unlock()
	if e.adjCache != nil {
		return e.adjCache, nil
	}
	adj, err := ml.NewGaussianAdjacency(e.zonePts, 1200, 0.05)
	if err != nil {
		return nil, err
	}
	e.adjCache = adj
	return adj, nil
}

// GroundTruth labels every zone — the naive full-TODAM approach — and is
// both the Table II baseline and the evaluation reference for Figs. 3-4.
func (e *Engine) GroundTruth(q Query) (*Result, error) {
	return e.GroundTruthContext(context.Background(), q)
}

// GroundTruthContext is GroundTruth with cooperative cancellation: the
// labeling loop — a full-TODAM baseline prices every zone, so it dominates
// by far — aborts between zones when ctx is cancelled, so a timed-out or
// abandoned baseline run stops burning CPU instead of finishing anyway.
func (e *Engine) GroundTruthContext(ctx context.Context, q Query) (*Result, error) {
	r := e.newRun(q)
	defer r.release()
	r.q.Budget = 1 // every zone is labeled, whatever budget the query names
	if err := r.validate(); err != nil {
		return nil, err
	}
	if err := r.matrix(ctx); err != nil {
		return nil, err
	}
	r.zones = make([]int, len(e.zonePts))
	for i := range r.zones {
		r.zones[i] = i
	}
	if err := r.label(ctx); err != nil {
		return nil, err
	}
	if r.lo.truncated > 0 {
		// With no stopBy, truncation can only mean the ctx deadline fired.
		// A partial ground truth would silently bias evaluations, so the
		// baseline keeps its all-or-nothing contract and errors instead.
		return nil, ctx.Err()
	}
	return r.finish(), nil
}

// FeatureCosts measures feature-generation time at the two aggregation
// granularities the paper weighs (Section IV-C): origin-level (one
// α-weighted vector per zone, the production path) versus OD-level (one
// vector per pair with positive attractiveness). It returns both durations
// and the OD row count.
func (e *Engine) FeatureCosts(q Query) (originLevel, odLevel time.Duration, odRows int, err error) {
	r := e.newRun(q)
	defer r.release()
	if err := r.validate(); err != nil {
		return 0, 0, 0, err
	}
	if err := r.matrix(context.Background()); err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	for zone := range e.zonePts {
		if _, err := e.extractor.OriginVector(zone, r.m.Row(zone), r.q.POIs, r.poiZones); err != nil {
			return 0, 0, 0, err
		}
	}
	originLevel = time.Since(t0)
	t0 = time.Now()
	for zone := range e.zonePts {
		for _, pt := range r.m.Row(zone) {
			if _, err := e.extractor.PairVector(zone, r.q.POIs[pt.POI], r.poiZones[pt.POI]); err != nil {
				return 0, 0, 0, err
			}
			odRows++
		}
	}
	odLevel = time.Since(t0)
	return originLevel, odLevel, odRows, nil
}

// buildMatrix constructs the gravity TODAM for a query plus the POI weld
// and zone association arrays.
func (e *Engine) buildMatrix(q Query) (*todam.Matrix, []graph.NodeID, []int, error) {
	spec := todam.Spec{
		ZonePts:        e.zonePts,
		POIPts:         q.POIs,
		Interval:       e.Interval,
		SamplesPerHour: q.SamplesPerHour,
		Attractiveness: q.Attractiveness,
		POIWeights:     q.POIWeights,
		ZoneWeights:    e.City.ZoneWeights,
		Seed:           q.Seed,
	}
	m, err := todam.Build(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	// Weld POIs to road nodes and associate them with zones, using the
	// KD-trees hoisted into NewEngine: the per-query cost here is now
	// O(POIs · log n) lookups instead of an O(road nodes) tree build.
	nodes := make([]graph.NodeID, len(q.POIs))
	zones := make([]int, len(q.POIs))
	for j, p := range q.POIs {
		if nb, ok := e.roadTree.Nearest(p); ok {
			nodes[j] = graph.NodeID(nb.Item.ID)
		} else {
			nodes[j] = graph.InvalidNode
		}
		if nb, ok := e.zoneTree.Nearest(p); ok {
			zones[j] = nb.Item.ID
		}
	}
	return m, nodes, zones, nil
}

// Isochrones exposes the per-zone walking isochrones (for inspection and
// diagnostics).
func (e *Engine) Isochrones() *isochrone.Set { return e.isos }
