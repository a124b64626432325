package features

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/isochrone"
	"accessquery/internal/synth"
	"accessquery/internal/todam"
)

// worldFixture builds the full preprocessing stack over a small synthetic
// city, shared across the tests in this package.
type worldFixture struct {
	city   *synth.City
	zones  []geo.Point
	isos   *isochrone.Set
	forest *hoptree.Forest
}

var cached *worldFixture

// Names lists the feature columns in vector order.
func Names() []string {
	return []string{
		"od_distance_m",
		"reachable_within_h",
		"hops_to_dest",
		"ob_size",
		"ib_size",
		"ob_best_leaf_dist_m",
		"ob_best_leaf_avg_journey_s",
		"ob_best_leaf_routes",
		"ob_best_leaf_visits",
		"ib_best_leaf_dist_m",
		"ib_best_leaf_avg_journey_s",
		"ib_best_leaf_routes",
		"ib_best_leaf_visits",
		"interchange_count",
		"interchange_best_dist_m",
		"hifreq_min_dist_to_dest_m",
		"reach_fraction_h",
		"walkable_direct",
		"walk_margin",
	}
}

func fixture(t testing.TB) *worldFixture {
	if cached != nil {
		return cached
	}
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
	if err != nil {
		t.Fatal(err)
	}
	zones := make([]geo.Point, len(c.Zones))
	nodes := make([]graph.NodeID, len(c.Zones))
	for i, z := range c.Zones {
		zones[i] = z.Centroid
		nodes[i] = c.ZoneNode[i]
	}
	isos, err := isochrone.ComputeSetParallel(c.Road, zones, nodes, isochrone.DefaultTauSeconds, 1)
	if err != nil {
		t.Fatal(err)
	}
	interval := gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday}
	b, err := hoptree.NewBuilder(c.Feed, interval, zones, isos)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := hoptree.BuildForestParallel(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	cached = &worldFixture{city: c, zones: zones, isos: isos, forest: forest}
	return cached
}

func newExtractor(t testing.TB) *Extractor {
	w := fixture(t)
	e, err := NewExtractor(w.forest, w.zones, w.isos, 2)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewExtractorValidation(t *testing.T) {
	w := fixture(t)
	if _, err := NewExtractor(nil, w.zones, w.isos, 2); err == nil {
		t.Error("nil forest should fail")
	}
	if _, err := NewExtractor(w.forest, w.zones[:3], w.isos, 2); err == nil {
		t.Error("zone count mismatch should fail")
	}
}

func TestNamesMatchesDim(t *testing.T) {
	if len(Names()) != Dim {
		t.Fatalf("Names() has %d entries, Dim is %d", len(Names()), Dim)
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestPairVectorShapeAndSanity(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	dest := w.zones[len(w.zones)-1]
	v, err := e.PairVector(0, dest, len(w.zones)-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != Dim {
		t.Fatalf("vector length %d, want %d", len(v), Dim)
	}
	for j, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("feature %d (%s) is %v", j, Names()[j], x)
		}
	}
	if v[0] <= 0 {
		t.Errorf("od distance = %v, want positive", v[0])
	}
	// reach_fraction in [0,1].
	if v[16] < 0 || v[16] > 1 {
		t.Errorf("reach fraction = %v", v[16])
	}
	// binary features are binary.
	if v[1] != 0 && v[1] != 1 {
		t.Errorf("reachable flag = %v", v[1])
	}
	if v[17] != 0 && v[17] != 1 {
		t.Errorf("walkable flag = %v", v[17])
	}
}

func TestPairVectorSelfPairIsWalkable(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	v, err := e.PairVector(0, w.zones[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0 {
		t.Errorf("self distance = %v", v[0])
	}
	if v[17] != 1 {
		t.Error("self pair should be walkable")
	}
}

func TestPairVectorOutOfRange(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	if _, err := e.PairVector(-1, w.zones[0], 0); err == nil {
		t.Error("negative origin should fail")
	}
	if _, err := e.PairVector(0, w.zones[0], len(w.zones)); err == nil {
		t.Error("out-of-range dest zone should fail")
	}
}

func TestPairVectorDeterministicAndCached(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	dest := w.zones[5]
	v1, err := e.PairVector(2, dest, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Second call exercises the caches.
	v2, err := e.PairVector(2, dest, 5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range v1 {
		if v1[j] != v2[j] {
			t.Fatalf("feature %d differs between calls: %v vs %v", j, v1[j], v2[j])
		}
	}
}

func TestDistanceFeatureTracksGeography(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	// Find the closest and farthest zones from zone 0.
	near, far := -1, -1
	nearD, farD := math.Inf(1), 0.0
	for i := 1; i < len(w.zones); i++ {
		d := geo.DistanceMeters(w.zones[0], w.zones[i])
		if d < nearD {
			nearD = d
			near = i
		}
		if d > farD {
			farD = d
			far = i
		}
	}
	vNear, err := e.PairVector(0, w.zones[near], near)
	if err != nil {
		t.Fatal(err)
	}
	vFar, err := e.PairVector(0, w.zones[far], far)
	if err != nil {
		t.Fatal(err)
	}
	if vNear[0] >= vFar[0] {
		t.Errorf("distance feature inverted: near %v >= far %v", vNear[0], vFar[0])
	}
}

func TestOriginVector(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	pois := w.city.POIs[synth.POIVaxCenter]
	poiPts := make([]geo.Point, len(pois))
	for j, p := range pois {
		poiPts[j] = p.Point
	}
	poiZone := assignZones(w.zones, poiPts)
	m, err := todam.Build(todam.Spec{
		ZonePts: w.zones, POIPts: poiPts,
		Interval:       gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday},
		SamplesPerHour: 10, Attractiveness: todam.DefaultAttractiveness(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for zone := 0; zone < len(w.zones); zone++ {
		row := m.Row(zone)
		v, err := e.OriginVector(zone, row, poiPts, poiZone)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != Dim {
			t.Fatalf("origin vector length %d", len(v))
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("zone %d feature %d is %v", zone, j, x)
			}
		}
		if len(row) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no zone had associated POIs; fixture too sparse")
	}
}

func TestWalkMarginFeature(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	// Self pair: margin 1 (distance zero).
	v, err := e.PairVector(0, w.zones[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[18]-1) > 1e-9 {
		t.Errorf("self walk margin = %v, want 1", v[18])
	}
	// A far pair has a negative margin.
	far, farD := 0, 0.0
	for i := range w.zones {
		if d := geo.DistanceMeters(w.zones[0], w.zones[i]); d > farD {
			farD = d
			far = i
		}
	}
	v, err = e.PairVector(0, w.zones[far], far)
	if err != nil {
		t.Fatal(err)
	}
	if v[18] >= 0 {
		t.Errorf("far walk margin = %v, want negative", v[18])
	}
	// Margin and the walkable flag agree in sign.
	if (v[17] == 1) != (v[18] >= 0) {
		t.Errorf("walkable flag %v disagrees with margin %v", v[17], v[18])
	}
}

func TestOriginVectorEmptyRowFallsBack(t *testing.T) {
	e := newExtractor(t)
	v, err := e.OriginVector(0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != Dim {
		t.Fatalf("fallback vector length %d", len(v))
	}
}

func TestOriginVectorBadPOIIndex(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	row := []todam.PairTrips{{POI: 99, Alpha: 1}}
	if _, err := e.OriginVector(0, row, []geo.Point{w.zones[0]}, []int{0}); err == nil {
		t.Error("POI index out of range should fail")
	}
}

// assignZones maps each POI to its nearest zone by linear scan.
func assignZones(zones []geo.Point, pois []geo.Point) []int {
	out := make([]int, len(pois))
	for j, p := range pois {
		best, bestD := 0, math.Inf(1)
		for i, z := range zones {
			if d := geo.DistanceMeters(z, p); d < bestD {
				bestD = d
				best = i
			}
		}
		out[j] = best
	}
	return out
}

func BenchmarkPairVector(b *testing.B) {
	w := fixture(b)
	e, err := NewExtractor(w.forest, w.zones, w.isos, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := i % len(w.zones)
		d := (i*17 + 3) % len(w.zones)
		if _, err := e.PairVector(o, w.zones[d], d); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPairVectorConcurrent exercises the lazy caches (hop counts, reach
// fractions, inbound KD-trees) from several goroutines on a cold
// extractor: a serving layer's worker pool shares one Extractor across
// concurrent engine runs. Run with -race this is the cache-synchronization
// regression test.
func TestPairVectorConcurrent(t *testing.T) {
	e := newExtractor(t) // cold caches
	w := fixture(t)
	nz := len(w.zones)
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the pairs in a different order so cache
			// misses collide, yielding every iteration so the accesses
			// interleave even on GOMAXPROCS=1.
			for i := 0; i < nz; i++ {
				origin := (i + g*nz/goroutines) % nz
				dest := (origin*7 + g + 1) % nz
				if _, err := e.PairVector(origin, w.zones[dest], dest); err != nil {
					errs[g] = err
					return
				}
				runtime.Gosched()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// Fully warmed caches must agree with a serial recomputation.
	serial, err := NewExtractor(w.forest, w.zones, w.isos, 2)
	if err != nil {
		t.Fatal(err)
	}
	for origin := 0; origin < nz; origin++ {
		dest := (origin*7 + 1) % nz
		want, err := serial.PairVector(origin, w.zones[dest], dest)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.PairVector(origin, w.zones[dest], dest)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("origin %d feature %d: concurrent %v != serial %v", origin, j, got[j], want[j])
			}
		}
	}
}

// TestVectorIntoAllocFree pins the warm-path contract of the Into
// extractors: once the per-zone caches are primed, neither PairVectorInto
// nor OriginVectorInto allocates — the property the engine's pooled
// feature stage depends on.
func TestVectorIntoAllocFree(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	pois := w.city.POIs[synth.POIVaxCenter]
	poiPts := make([]geo.Point, len(pois))
	for j, p := range pois {
		poiPts[j] = p.Point
	}
	poiZone := assignZones(w.zones, poiPts)
	m, err := todam.Build(todam.Spec{
		ZonePts: w.zones, POIPts: poiPts,
		Interval:       gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday},
		SamplesPerHour: 10, Attractiveness: todam.DefaultAttractiveness(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, Dim)
	s := GetScratch()
	defer PutScratch(s)
	destZone := len(w.zones) - 1
	dest := w.zones[destZone]
	if err := e.PairVectorInto(dst, 0, dest, destZone, s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := e.PairVectorInto(dst, 0, dest, destZone, s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm PairVectorInto allocates %.1f objects/op, want 0", n)
	}
	// Pick a zone whose TODAM row is non-empty so the full POI aggregation
	// path runs, not the empty-row fallback.
	zone := 0
	for z := 0; z < len(w.zones); z++ {
		if len(m.Row(z)) > 0 {
			zone = z
			break
		}
	}
	row := m.Row(zone)
	if err := e.OriginVectorInto(dst, s, zone, row, poiPts, poiZone); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := e.OriginVectorInto(dst, s, zone, row, poiPts, poiZone); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm OriginVectorInto allocates %.1f objects/op, want 0", n)
	}
}
