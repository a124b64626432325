package delta

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

// Fixtures: one small baseline city and engine, built once. Small enough
// to from-scratch rebuild per case, big enough that a single route's
// walkshed does not cover every zone.
var (
	baseCity   *synth.City
	baseEngine *core.Engine
)

func baseline(t *testing.T) (*synth.City, *core.Engine) {
	t.Helper()
	if baseEngine != nil {
		return baseCity, baseEngine
	}
	city, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(city, core.EngineOptions{
		Interval:    gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday},
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseCity, baseEngine = city, eng
	return city, eng
}

func routeID(t *testing.T, city *synth.City, i int) string {
	t.Helper()
	if len(city.Feed.Routes) <= i {
		t.Fatalf("city has only %d routes", len(city.Feed.Routes))
	}
	return string(city.Feed.Routes[i].ID)
}

// queryOn runs one fixed query and strips the fields that legitimately
// differ between two engines answering it: wall-clock timing and work
// counters, and the scenario provenance a derived engine carries.
func queryOn(t *testing.T, e *core.Engine, parallelism int) *core.Result {
	t.Helper()
	res, err := e.Run(core.Query{
		POIs:        core.POIsOf(e.City, "school"),
		POIWeights:  core.POIWeightsOf(e.City, "school"),
		Budget:      0.2,
		Model:       core.ModelOLS,
		Seed:        7,
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Timing = core.Timing{}
	res.Matrix = nil
	res.Scenario = nil
	return res
}

// TestIncrementalEquivalence is the central property of the delta
// subsystem: for a spread of mutation batches, applying incrementally on
// top of the baseline engine must produce an engine whose hop forest and
// query results deep-equal a from-scratch build of the mutated city — at
// parallelism 1 and N.
func TestIncrementalEquivalence(t *testing.T) {
	city, eng := baseline(t)
	r0, r1 := routeID(t, city, 0), routeID(t, city, 1)

	cases := []struct {
		name string
		muts []Mutation
	}{
		{"close one route", []Mutation{
			{Kind: CloseRoute, Route: r0}}},
		{"thin headways", []Mutation{
			{Kind: ScaleHeadway, Route: r1, Factor: 2}}},
		{"boost headways", []Mutation{
			{Kind: ScaleHeadway, Route: r0, Factor: 0.5}}},
		{"close then reopen is a no-op", []Mutation{
			{Kind: CloseRoute, Route: r0},
			{Kind: ReopenRoute, Route: r0}}},
		{"poi and zone reweights", []Mutation{
			{Kind: ReweightPOI, Category: "school", POI: 0, Factor: 0.25},
			{Kind: ScaleZoneWeight, Zone: 3, Factor: 1.5}}},
		{"mixed batch", []Mutation{
			{Kind: CloseRoute, Route: r1},
			{Kind: ScaleHeadway, Route: r0, Factor: 2},
			{Kind: AddPOI, Category: "school", Lat: city.Zones[0].Centroid.Lat, Lon: city.Zones[0].Centroid.Lon, Factor: 0.8}}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", tc.name, workers), func(t *testing.T) {
				inc, radius, err := Apply(eng, city, tc.muts, tc.muts, 1, workers, eng.PrepDuration)
				if err != nil {
					t.Fatal(err)
				}
				mutated, _, err := MutateCity(city, tc.muts)
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := core.NewEngine(mutated, core.EngineOptions{
					Interval:    eng.Interval,
					Parallelism: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(inc.Forest(), scratch.Forest()) {
					t.Fatal("incremental forest differs from from-scratch forest")
				}
				got, want := queryOn(t, inc, workers), queryOn(t, scratch, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("incremental query result differs from from-scratch:\n got %+v\nwant %+v", got, want)
				}
				if radius.TreesTotal != 2*len(mutated.Zones) {
					t.Errorf("TreesTotal = %d, want %d", radius.TreesTotal, 2*len(mutated.Zones))
				}
			})
		}
	}
}

// TestClosureBlastRadiusIsPartial: closing a single route must rebuild
// some hop trees but strictly fewer than the city total — the whole point
// of dependency analysis.
func TestClosureBlastRadiusIsPartial(t *testing.T) {
	city, eng := baseline(t)
	muts := []Mutation{{Kind: CloseRoute, Route: routeID(t, city, 0)}}
	_, radius, err := Apply(eng, city, muts, muts, 1, 1, eng.PrepDuration)
	if err != nil {
		t.Fatal(err)
	}
	if radius.TreesRebuilt <= 0 || radius.TreesRebuilt >= radius.TreesTotal {
		t.Fatalf("closure rebuilt %d of %d trees, want strictly partial", radius.TreesRebuilt, radius.TreesTotal)
	}
	if radius.StopsAffected <= 0 || radius.ZonesTouched <= 0 || !radius.RouterRebuilt {
		t.Fatalf("blast radius %+v", radius)
	}
}

// TestQueryOnlyBatchSharesForest: POI/zone reweights rebuild nothing —
// the derived engine shares the forest pointer outright.
func TestQueryOnlyBatchSharesForest(t *testing.T) {
	city, eng := baseline(t)
	muts := []Mutation{{Kind: ScaleZoneWeight, Zone: 0, Factor: 2}}
	inc, radius, err := Apply(eng, city, muts, muts, 1, 1, eng.PrepDuration)
	if err != nil {
		t.Fatal(err)
	}
	if radius.TreesRebuilt != 0 || radius.ZonesTouched != 0 || radius.RouterRebuilt {
		t.Fatalf("blast radius %+v", radius)
	}
	if inc.Forest() != eng.Forest() {
		t.Fatal("query-only batch should share the baseline forest")
	}
	if radius.ZonesReweighted != 1 {
		t.Fatalf("ZonesReweighted = %d", radius.ZonesReweighted)
	}
}

// TestMutationValidation: invalid mutations are rejected without a build.
func TestMutationValidation(t *testing.T) {
	city, _ := baseline(t)
	r0 := routeID(t, city, 0)
	bad := [][]Mutation{
		{{Kind: CloseRoute, Route: "RT_NOPE"}},
		{{Kind: ReopenRoute, Route: "RT_NOPE"}},
		{{Kind: ScaleHeadway, Route: r0, Factor: 0}},
		{{Kind: ScaleHeadway, Route: r0, Factor: -1}},
		{{Kind: AddPOI, Category: "casino", Factor: 1}}, // unknown category
		{{Kind: RemovePOI, Category: "school", POI: 1 << 20}},
		{{Kind: ReweightPOI, Category: "school", POI: 0, Factor: -2}},
		{{Kind: ScaleZoneWeight, Zone: -1, Factor: 1}},
		{{Kind: ScaleZoneWeight, Zone: len(city.Zones), Factor: 1}},
		{{Kind: Kind("teleport")}},
	}
	for i, muts := range bad {
		if _, _, err := MutateCity(city, muts); err == nil {
			t.Errorf("case %d (%v): expected a validation error", i, muts)
		}
	}
}

// TestMutateCityLeavesBaselineIntact: application is copy-on-write — the
// baseline city and feed must be untouched afterwards.
func TestMutateCityLeavesBaselineIntact(t *testing.T) {
	city, _ := baseline(t)
	trips := len(city.Feed.Trips)
	schools := len(city.POIs["school"])
	muts := []Mutation{
		{Kind: CloseRoute, Route: routeID(t, city, 0)},
		{Kind: AddPOI, Category: "school", Lat: 52.4, Lon: -1.5, Factor: 1},
		{Kind: ScaleZoneWeight, Zone: 0, Factor: 3},
	}
	mutated, changed, err := MutateCity(city, muts)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("expected changed=true")
	}
	if len(city.Feed.Trips) != trips || len(city.POIs["school"]) != schools || city.ZoneWeights != nil {
		t.Fatal("MutateCity modified the baseline city")
	}
	if len(mutated.Feed.Trips) >= trips {
		t.Fatalf("closure should drop trips: %d -> %d", trips, len(mutated.Feed.Trips))
	}
	if len(mutated.POIs["school"]) != schools+1 {
		t.Fatalf("add_poi: %d -> %d", schools, len(mutated.POIs["school"]))
	}
	if mutated.ZoneWeights[0] != 3 {
		t.Fatalf("zone weight = %v", mutated.ZoneWeights[0])
	}
}

// TestStackedHeadwayBatchesKeepTripIDsUnique: two scale_headway batches on
// one route, applied one after the other as a scenario stacks them, leave
// a timetable in which no two trips share an ID — the router refuses one
// that does — and equal a from-scratch build.
func TestStackedHeadwayBatchesKeepTripIDsUnique(t *testing.T) {
	city, eng := baseline(t)
	r0, r1 := routeID(t, city, 0), routeID(t, city, 1)
	first := []Mutation{{Kind: ScaleHeadway, Route: r0, Factor: 0.5}}
	second := []Mutation{{Kind: ScaleHeadway, Route: r0, Factor: 0.5}, {Kind: ScaleHeadway, Route: r1, Factor: 0.5}}
	cumulative := append(append([]Mutation(nil), first...), second...)
	mid, _, err := Apply(eng, city, first, first, 1, 1, eng.PrepDuration)
	if err != nil {
		t.Fatal(err)
	}
	inc, radius, err := Apply(mid, city, cumulative, second, 2, 1, eng.PrepDuration)
	if err != nil {
		t.Fatal(err)
	}
	if !radius.RouterRebuilt {
		t.Fatal("a headway batch should rebuild the router")
	}
	mutated, _, err := MutateCity(city, cumulative)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[gtfs.TripID]bool, len(mutated.Feed.Trips))
	inserted := 0
	for _, tr := range mutated.Feed.Trips {
		if seen[tr.ID] {
			t.Fatalf("trip ID %q appears twice", tr.ID)
		}
		seen[tr.ID] = true
		if strings.Contains(string(tr.ID), "#d") {
			inserted++
		}
	}
	if inserted == 0 {
		t.Fatal("the stacked batches inserted no trips")
	}
	scratch, err := core.NewEngine(mutated, core.EngineOptions{Interval: eng.Interval, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := queryOn(t, inc, 1), queryOn(t, scratch, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("stacked incremental result differs from from-scratch:\n got %+v\nwant %+v", got, want)
	}
}

// TestShiftedTripIDsAvoidFeedIDs: an inserted trip's derived ID never
// repeats one of the feed's own, even when the feed already names a trip
// the way an insertion would be named.
func TestShiftedTripIDsAvoidFeedIDs(t *testing.T) {
	city, _ := baseline(t)
	r0 := gtfs.RouteID(routeID(t, city, 0))
	base := city.Feed.Clone()
	var first *gtfs.Trip
	for i := range base.Trips {
		if base.Trips[i].RouteID == r0 {
			first = &base.Trips[i]
			break
		}
	}
	// A trip of another day's service, named as first's first insertion
	// would be.
	squatter := *first
	squatter.ID = first.ID + "#d1"
	squatter.ServiceID = "nope"
	base.Trips = append(base.Trips, squatter)
	out, changed := mutateFeed(base, nil, map[gtfs.RouteID]float64{r0: 0.5})
	if !changed {
		t.Fatal("halving the headway inserted nothing")
	}
	seen := make(map[gtfs.TripID]bool, len(out.Trips))
	for _, tr := range out.Trips {
		if seen[tr.ID] {
			t.Fatalf("trip ID %q appears twice", tr.ID)
		}
		seen[tr.ID] = true
	}
	if !seen[first.ID+"#d1#d1"] {
		t.Errorf("the insertion after %q was not renamed past the feed's own %q", first.ID, squatter.ID)
	}
}
