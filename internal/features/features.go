// Package features implements the paper's online feature computation
// (Section IV-B). For an origin-destination pair it retrieves the origin's
// outbound transit-hop tree and the destination's inbound tree, identifies
// interchanges (a 1-NN search from each outbound leaf onto the inbound
// leaves followed by a walking-isochrone intersection test), and emits a
// fixed-width vector describing the pair's potential connectivity. OD
// vectors are aggregated to the origin level with the attractiveness
// weights α, mirroring the gravity-based access measures.
//
// A pair vector is a pure function of the engine generation (forest, zone
// centroids, isochrones) and of (origin zone, destination point,
// destination zone) — not of the query's seed, budget, model or cost — so
// the extractor keeps every row it has computed for as long as it lives
// (see pairColumn) and a query pays only for rows no earlier query touched.
//
// Every lazy cache is a dense slice addressed by the zone index (the same
// index the forest and isochrone set use), and the hot path has Into
// variants writing into caller scratch, so a warm extractor serves feature
// vectors with zero allocations.
package features

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"accessquery/internal/geo"
	"accessquery/internal/hoptree"
	"accessquery/internal/isochrone"
	"accessquery/internal/par"
	"accessquery/internal/spatial"
	"accessquery/internal/todam"
)

// Dim is the width of the pair feature vector.
const Dim = 19

// Scratch holds the per-goroutine buffers the Into variants write through:
// the reach BFS frontier, the pair vector a table miss is computed into,
// and the interchange list. A Scratch must not be shared between
// concurrent calls; pool or stack one per worker. The zero value is ready
// to use.
type Scratch struct {
	reach hoptree.ReachScratch
	pair  []float64
	inter []int32
}

// scratchPool backs the allocating convenience wrappers (PairVector,
// OriginVector) so they stay cheap without burdening their callers with a
// Scratch.
var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch returns a pooled Scratch for use with the *Into methods;
// return it with PutScratch once the call (not the result) is done.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch obtained from GetScratch to the pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// Extractor computes pair and origin-level feature vectors from the
// pre-computed structures.
type Extractor struct {
	forest *hoptree.Forest
	zones  []geo.Point
	isos   *isochrone.Set
	// Hops is the chaining depth h; the paper uses 1 or 2.
	Hops int

	// mu guards the lazy caches below: one Extractor is shared by every
	// concurrent engine run (e.g. a serving layer's worker pool). Cache
	// values are deterministic and immutable once stored, so misses compute
	// outside the write lock and the first stored value wins. Each cache is
	// a dense slice indexed by zone; the nil / negative entry is the
	// not-yet-computed sentinel.
	mu sync.RWMutex
	// connects caches the interchange test per destination zone:
	// connects[dest].row[z] reports whether zone z connects to dest's
	// inbound tree — its nearest inbound leaf (1-NN) is z itself or a zone
	// whose walking isochrone overlaps z's. The test depends on (z, dest)
	// only, never on the origin whose outbound leaf z is, so one row serves
	// every origin. Not under mu: each row is filled exactly once, and the
	// feature workers of a query, which all meet a new destination at the
	// same moment, wait for the one filling it instead of each computing it.
	connects []connectRow
	// reachFrac caches the h-hop reachable fraction per origin (-1 =
	// uncached).
	reachFrac []float64
	// hopsTo caches per-origin hop counts: hopsTo[origin][z] is the minimum
	// hop count to z, -1 when unreachable within Hops; a nil row is
	// uncached.
	hopsTo [][]int32
	// pairs is the pair-vector table: one column per destination ever
	// asked for, holding that destination's row for every origin zone.
	// The map is guarded by mu; a column's rows publish themselves (see
	// pairColumn).
	pairs map[pairDest]*pairColumn

	// cacheHits/cacheMisses count lazy-cache outcomes for this extractor,
	// alongside the process-wide metrics. Engine runs snapshot them around a
	// query to attribute cache behaviour per stage; the counts are shared by
	// all concurrent users of the extractor, so per-query deltas are an
	// approximation under concurrency.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// CacheStats returns the cumulative lazy-cache hit and miss counts for this
// extractor.
func (e *Extractor) CacheStats() (hits, misses int64) {
	return e.cacheHits.Load(), e.cacheMisses.Load()
}

func (e *Extractor) cacheHit() {
	e.cacheHits.Add(1)
	mCacheHits.Inc()
}

func (e *Extractor) cacheMiss() {
	e.cacheMisses.Add(1)
	mCacheMisses.Inc()
}

// NewExtractor builds an extractor. zones are zone centroids indexed like
// the forest; isos are the walking isochrones for interchange testing.
func NewExtractor(forest *hoptree.Forest, zones []geo.Point, isos *isochrone.Set, hops int) (*Extractor, error) {
	if forest == nil || isos == nil {
		return nil, fmt.Errorf("features: nil forest or isochrones")
	}
	if forest.Zones() != len(zones) {
		return nil, fmt.Errorf("features: forest covers %d zones, got %d centroids", forest.Zones(), len(zones))
	}
	if len(isos.Isochrones) != len(zones) {
		return nil, fmt.Errorf("features: %d isochrones for %d zones", len(isos.Isochrones), len(zones))
	}
	if hops <= 0 {
		hops = 2
	}
	reachFrac := make([]float64, len(zones))
	for i := range reachFrac {
		reachFrac[i] = -1
	}
	return &Extractor{
		forest:    forest,
		zones:     zones,
		isos:      isos,
		Hops:      hops,
		connects:  make([]connectRow, len(zones)),
		reachFrac: reachFrac,
		hopsTo:    make([][]int32, len(zones)),
		pairs:     make(map[pairDest]*pairColumn),
	}, nil
}

// pairDest identifies a destination by content. POI indices are positions
// in one query's POI list and shift when a scenario adds or removes a POI;
// the point and its zone are what the vector is computed from.
type pairDest struct {
	pt   geo.Point
	zone int
}

// maxPairColumns bounds the table for callers that keep inventing
// destinations (a library user passing fresh POIs per query): past it, rows
// for new destinations are computed and not kept. A served city has a few
// hundred POIs in all; the table is zones x destinations x Dim x 8 bytes,
// i.e. 38 KB per destination at 253 zones and 0.5 MB at Birmingham's 3,217.
const maxPairColumns = 4096

// pairColumn holds one destination's rows, origin-major, in one block.
// state[origin] moves rowEmpty -> rowWriting -> rowReady: the goroutine
// that wins the first transition fills the row and then publishes it, a
// reader uses the row only after loading rowReady, and a goroutine that
// loses the race keeps the (identical) vector it computed itself. Rows are
// never rewritten, so the first stored value wins as in the other caches.
type pairColumn struct {
	state []atomic.Uint32
	rows  []float64 // len(zones) * Dim
}

const (
	rowEmpty uint32 = iota
	rowWriting
	rowReady
)

func (c *pairColumn) row(origin int) []float64 {
	return c.rows[origin*Dim : (origin+1)*Dim : (origin+1)*Dim]
}

// columnFor returns the destination's column, creating it on first use; nil
// once the table is full.
func (e *Extractor) columnFor(d pairDest) *pairColumn {
	e.mu.RLock()
	c := e.pairs[d]
	e.mu.RUnlock()
	if c != nil {
		return c
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c = e.pairs[d]; c == nil && len(e.pairs) < maxPairColumns {
		c = e.newPairColumn()
		e.pairs[d] = c
	}
	return c
}

func (e *Extractor) newPairColumn() *pairColumn {
	return &pairColumn{
		state: make([]atomic.Uint32, len(e.zones)),
		rows:  make([]float64, len(e.zones)*Dim),
	}
}

// Warm populates the per-origin lazy caches — hop rows and reach
// fractions — across a worker pool, shifting that part of the first
// query's cache-miss cost into the offline phase. (The per-destination
// rows and the pair table fill on first use: which zones are destinations
// is the queries' business.) The cached values are deterministic, so
// warming never changes any feature vector; it only moves when the work
// happens. Safe to call concurrently with queries.
func (e *Extractor) Warm(workers int) {
	// Each cache accessor takes the write lock only for its own key, so
	// warming in parallel contends briefly per entry rather than serializing
	// the whole pass.
	_ = par.For(workers, len(e.zones), func(zone int) error {
		s := scratchPool.Get().(*Scratch)
		e.reachFraction(zone, s) // also fills hopsTo[zone]
		scratchPool.Put(s)
		return nil
	})
}

// walkRadiusMeters is the direct-walk feasibility radius used by the
// walkable_direct feature: the crow-flight distance coverable in tau
// seconds.
func (e *Extractor) walkRadiusMeters() float64 {
	return e.isos.Tau / geo.WalkSecondsPerMeter
}

// PairVector computes the feature vector for (origin zone, destination
// point). destZone is the zone the destination POI is associated with.
func (e *Extractor) PairVector(origin int, dest geo.Point, destZone int) ([]float64, error) {
	v := make([]float64, Dim)
	s := scratchPool.Get().(*Scratch)
	err := e.PairVectorInto(v, origin, dest, destZone, s)
	scratchPool.Put(s)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// PairVectorInto computes the feature vector for (origin zone, destination
// point) into dst, which must have length Dim. With warm caches the call
// performs no allocations.
func (e *Extractor) PairVectorInto(dst []float64, origin int, dest geo.Point, destZone int, s *Scratch) error {
	if len(dst) != Dim {
		return fmt.Errorf("features: dst length %d, want %d", len(dst), Dim)
	}
	row, hit, err := e.pairRow(origin, dest, destZone, s)
	if err != nil {
		return err
	}
	if hit {
		e.countPairRows(1, 0)
	} else {
		e.countPairRows(0, 1)
	}
	copy(dst, row)
	return nil
}

// pairRow returns the vector for (origin zone, destination point) from the
// pair table, computing and storing it on first use; hit reports which.
// The returned row must not be modified; a computed row aliases s.pair and
// is valid until the next call on the same scratch. The caller counts the
// lookup (countPairRows), once per row or once per batch of rows.
func (e *Extractor) pairRow(origin int, dest geo.Point, destZone int, s *Scratch) (row []float64, hit bool, err error) {
	if origin < 0 || origin >= len(e.zones) {
		return nil, false, fmt.Errorf("features: origin %d out of range", origin)
	}
	if destZone < 0 || destZone >= len(e.zones) {
		return nil, false, fmt.Errorf("features: destination zone %d out of range", destZone)
	}
	if s == nil {
		return nil, false, fmt.Errorf("features: nil scratch")
	}
	col := e.columnFor(pairDest{pt: dest, zone: destZone})
	if col != nil && col.state[origin].Load() == rowReady {
		return col.row(origin), true, nil
	}
	if s.pair == nil {
		s.pair = make([]float64, Dim)
	}
	e.computePair(s.pair, origin, dest, destZone, s)
	if col != nil && col.state[origin].CompareAndSwap(rowEmpty, rowWriting) {
		copy(col.row(origin), s.pair)
		col.state[origin].Store(rowReady)
	}
	return s.pair, false, nil
}

// countPairRows records pair-table lookups: every lookup is a pair vector
// served, and a hit or a miss of the lazy caches.
func (e *Extractor) countPairRows(hits, misses int64) {
	mPairVectors.Add(hits + misses)
	if hits > 0 {
		e.cacheHits.Add(hits)
		mCacheHits.Add(hits)
	}
	if misses > 0 {
		e.cacheMisses.Add(misses)
		mCacheMisses.Add(misses)
	}
}

// computePair evaluates the pair vector into v (length Dim) from the
// forest, the isochrones and the sub-structure caches.
func (e *Extractor) computePair(v []float64, origin int, dest geo.Point, destZone int, s *Scratch) {
	for i := range v {
		v[i] = 0
	}
	op := e.zones[origin]
	odDist := geo.DistanceMeters(op, dest)
	v[0] = odDist

	hopsTo := e.hopsFor(origin, s)
	if h := hopsTo[destZone]; h >= 0 {
		v[1] = 1
		v[2] = float64(h)
	} else {
		v[2] = float64(e.Hops + 1) // sentinel: beyond h hops
	}

	ob := e.forest.Outbound(origin)
	ib := e.forest.Inbound(destZone)
	v[3] = float64(ob.Size())
	v[4] = float64(ib.Size())

	// Closest outbound leaf to the destination.
	if leaf, dist := e.closestLeaf(ob, dest); leaf != nil {
		v[5] = dist
		v[6] = leaf.AvgJourney()
		v[7] = float64(leaf.RouteCount())
		v[8] = float64(leaf.Visits)
	} else {
		v[5] = odDist // nothing closer than staying put
	}
	// Closest inbound leaf to the origin.
	if leaf, dist := e.closestLeaf(ib, op); leaf != nil {
		v[9] = dist
		v[10] = leaf.AvgJourney()
		v[11] = float64(leaf.RouteCount())
		v[12] = float64(leaf.Visits)
	} else {
		v[9] = odDist
	}

	// Interchanges.
	inter := e.interchanges(ob, destZone, s)
	v[13] = float64(len(inter))
	best := math.Inf(1)
	for _, zi := range inter {
		if d := geo.DistanceMeters(e.zones[zi], dest); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		best = odDist
	}
	v[14] = best

	// High-frequency-route feature: among the top outbound leaves by
	// visits, how close can we get to the destination?
	v[15] = e.hiFreqApproach(ob, dest, odDist)
	v[16] = e.reachFraction(origin, s)
	if odDist <= e.walkRadiusMeters() {
		v[17] = 1
	}
	// walk_margin addresses the walk-only-trip difficulty the paper's
	// conclusion flags: how deep inside (positive) or far outside
	// (negative) the walking radius the destination sits, in units of the
	// radius. Walk-only pairs have zero cost variance (ACSD 0), and this
	// continuous signal lets the models separate them from marginal ones.
	v[18] = (e.walkRadiusMeters() - odDist) / e.walkRadiusMeters()
}

func (e *Extractor) hopsFor(origin int, s *Scratch) []int32 {
	e.mu.RLock()
	row := e.hopsTo[origin]
	e.mu.RUnlock()
	if row != nil {
		e.cacheHit()
		return row
	}
	e.cacheMiss()
	row = make([]int32, len(e.zones))
	e.forest.ReachableInto(row, origin, e.Hops, &s.reach)
	e.mu.Lock()
	if prev := e.hopsTo[origin]; prev != nil {
		row = prev // a concurrent miss stored first; share its row
	} else {
		e.hopsTo[origin] = row
	}
	e.mu.Unlock()
	return row
}

func (e *Extractor) reachFraction(origin int, s *Scratch) float64 {
	e.mu.RLock()
	f := e.reachFrac[origin]
	e.mu.RUnlock()
	if f >= 0 {
		e.cacheHit()
		return f
	}
	e.cacheMiss()
	reached := 0
	for _, h := range e.hopsFor(origin, s) {
		if h >= 0 {
			reached++
		}
	}
	f = float64(reached) / float64(len(e.zones))
	e.mu.Lock()
	e.reachFrac[origin] = f
	e.mu.Unlock()
	return f
}

// closestLeaf returns the leaf geographically nearest to p and its
// distance, or nil for an empty tree. Leaves are scanned in zone order, so
// the result is deterministic.
func (e *Extractor) closestLeaf(t *hoptree.Tree, p geo.Point) (*hoptree.Leaf, float64) {
	var best *hoptree.Leaf
	bestD := math.Inf(1)
	for i := range t.Leaves {
		leaf := &t.Leaves[i]
		if d := geo.DistanceMeters(e.zones[leaf.Zone], p); d < bestD {
			bestD = d
			best = leaf
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, bestD
}

// interchanges identifies the outbound leaves that connect to the inbound
// tree of destZone (Section IV-B1), in leaf order. The returned slice
// aliases s.inter and is valid until the next call on the same scratch.
func (e *Extractor) interchanges(ob *hoptree.Tree, destZone int, s *Scratch) []int32 {
	out := s.inter[:0]
	connects := e.connectsFor(destZone)
	for i := range ob.Leaves {
		if zone := ob.Leaves[i].Zone; connects[zone] {
			out = append(out, zone)
		}
	}
	s.inter = out
	return out
}

// connectRow is one lazily filled row of Extractor.connects. once makes
// the fill happen once; row is published atomically so SeedFrom can ask a
// live extractor whether a row is there without joining the fill.
type connectRow struct {
	once sync.Once
	row  atomic.Pointer[[]bool]
}

// connectsFor returns destZone's row of the interchange test: for each
// zone, the nearest inbound leaf of destZone is found with a 1-NN query
// and the pair is tested for walking-isochrone overlap.
func (e *Extractor) connectsFor(destZone int) []bool {
	c := &e.connects[destZone]
	hit := true
	c.once.Do(func() {
		hit = false
		ib := e.forest.Inbound(destZone)
		items := make([]spatial.Item, 0, ib.Size())
		for i := range ib.Leaves {
			zone := int(ib.Leaves[i].Zone)
			items = append(items, spatial.Item{ID: zone, Point: e.zones[zone]})
		}
		ibTree := spatial.NewKDTree(items)
		row := make([]bool, len(e.zones))
		for zone := range row {
			nb, ok := ibTree.Nearest(e.zones[zone])
			if !ok {
				continue
			}
			isoA := e.isos.For(zone)
			isoB := e.isos.For(nb.Item.ID)
			if isoA == nil || isoB == nil {
				continue
			}
			row[zone] = zone == nb.Item.ID || isoA.Intersects(isoB)
		}
		c.row.Store(&row)
	})
	if hit {
		e.cacheHit()
	} else {
		e.cacheMiss()
	}
	return *c.row.Load()
}

// hiFreqApproach returns the minimum distance to dest over the top-k
// outbound leaves ranked by visit frequency (zone index as deterministic
// tie-break), falling back to the direct distance when the tree is empty.
// The top-k selection runs over fixed-size arrays: no sort, no allocation.
func (e *Extractor) hiFreqApproach(ob *hoptree.Tree, dest geo.Point, fallback float64) float64 {
	const topK = 5
	if len(ob.Leaves) == 0 {
		return fallback
	}
	var topZone [topK]int32
	var topVisits [topK]int32
	n := 0
	for i := range ob.Leaves {
		zone, visits := ob.Leaves[i].Zone, ob.Leaves[i].Visits
		// Leaves arrive in ascending zone order, so on equal visit counts
		// the earlier (lower) zone outranks: insert strictly-greater only.
		pos := n
		for pos > 0 && visits > topVisits[pos-1] {
			pos--
		}
		if pos >= topK {
			continue
		}
		hi := n
		if hi >= topK {
			hi = topK - 1
		}
		for j := hi; j > pos; j-- {
			topZone[j], topVisits[j] = topZone[j-1], topVisits[j-1]
		}
		topZone[pos], topVisits[pos] = zone, visits
		if n < topK {
			n++
		}
	}
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		if d := geo.DistanceMeters(e.zones[topZone[i]], dest); d < best {
			best = d
		}
	}
	return best
}

// OriginVector aggregates a zone's OD pair vectors to the origin level with
// an α-weighted mean, the same weighting the gravity access measures use.
// poiZone maps POI index to its associated zone; poiPts are POI locations.
func (e *Extractor) OriginVector(origin int, row []todam.PairTrips, poiPts []geo.Point, poiZone []int) ([]float64, error) {
	agg := make([]float64, Dim)
	s := scratchPool.Get().(*Scratch)
	err := e.OriginVectorInto(agg, s, origin, row, poiPts, poiZone)
	scratchPool.Put(s)
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// OriginVectorInto is OriginVector writing into dst (length Dim) through
// caller scratch; with warm caches it performs no allocations.
func (e *Extractor) OriginVectorInto(dst []float64, s *Scratch, origin int, row []todam.PairTrips, poiPts []geo.Point, poiZone []int) error {
	if len(dst) != Dim {
		return fmt.Errorf("features: dst length %d, want %d", len(dst), Dim)
	}
	if s == nil {
		return fmt.Errorf("features: nil scratch")
	}
	for j := range dst {
		dst[j] = 0
	}
	var wsum float64
	// Lookups are tallied here and counted once per origin: two feature
	// workers bumping shared counters per pair would cost more than the
	// table read they count.
	var hits, misses int64
	defer func() { e.countPairRows(hits, misses) }()
	for _, pt := range row {
		if pt.POI < 0 || pt.POI >= len(poiPts) || pt.POI >= len(poiZone) {
			return fmt.Errorf("features: POI %d out of range", pt.POI)
		}
		pair, hit, err := e.pairRow(origin, poiPts[pt.POI], poiZone[pt.POI], s)
		if err != nil {
			return err
		}
		if hit {
			hits++
		} else {
			misses++
		}
		w := pt.Alpha
		wsum += w
		for j := range dst {
			dst[j] += w * pair[j]
		}
	}
	if wsum == 0 {
		// Zone with no associated POIs: describe it by its own connectivity
		// so the model still has signal.
		return e.PairVectorInto(dst, origin, e.zones[origin], origin, s)
	}
	for j := range dst {
		dst[j] /= wsum
	}
	return nil
}
