package synth

import (
	"math"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// smallCity generates a cheap city reused across tests in this package.
func smallCity(t *testing.T) *City {
	t.Helper()
	c, err := Generate(Scaled(Coventry(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Zones: 0, RadiusMeters: 100}); err == nil {
		t.Error("zero zones should fail")
	}
	if _, err := Generate(Config{Zones: 5, RadiusMeters: -1}); err == nil {
		t.Error("negative radius should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Scaled(Coventry(), 0.05)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Zones) != len(b.Zones) {
		t.Fatalf("zone counts differ: %d vs %d", len(a.Zones), len(b.Zones))
	}
	for i := range a.Zones {
		if a.Zones[i].Centroid != b.Zones[i].Centroid {
			t.Fatalf("zone %d centroid differs", i)
		}
		if a.Zones[i].Population != b.Zones[i].Population {
			t.Fatalf("zone %d population differs", i)
		}
	}
	if len(a.Feed.Trips) != len(b.Feed.Trips) {
		t.Fatalf("trip counts differ: %d vs %d", len(a.Feed.Trips), len(b.Feed.Trips))
	}
	// Road EDGES must match too: adjacency (including the 4% random drops)
	// has to be reproducible, not just node positions.
	if a.Road.NumEdges() != b.Road.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Road.NumEdges(), b.Road.NumEdges())
	}
	for n := 0; n < a.Road.NumNodes(); n++ {
		var ea, eb []graph.NodeID
		a.Road.Neighbors(graph.NodeID(n), func(to graph.NodeID, _ float64) { ea = append(ea, to) })
		b.Road.Neighbors(graph.NodeID(n), func(to graph.NodeID, _ float64) { eb = append(eb, to) })
		if len(ea) != len(eb) {
			t.Fatalf("node %d degree differs", n)
		}
		for k := range ea {
			if ea[k] != eb[k] {
				t.Fatalf("node %d adjacency differs", n)
			}
		}
	}
	for cat := range a.POIs {
		if len(a.POIs[cat]) != len(b.POIs[cat]) {
			t.Fatalf("POI count for %s differs", cat)
		}
		for i := range a.POIs[cat] {
			if a.POIs[cat][i].Point != b.POIs[cat][i].Point {
				t.Fatalf("POI %s[%d] differs", cat, i)
			}
		}
	}
}

func TestZonesWithinCity(t *testing.T) {
	c := smallCity(t)
	cfg := c.Config
	if len(c.Zones) != cfg.Zones {
		t.Fatalf("generated %d zones, want %d", len(c.Zones), cfg.Zones)
	}
	for _, z := range c.Zones {
		d := geo.DistanceMeters(cfg.Center, z.Centroid)
		if d > cfg.RadiusMeters*1.01 {
			t.Errorf("zone %d is %f m out, radius %f", z.ID, d, cfg.RadiusMeters)
		}
		if z.Population <= 0 {
			t.Errorf("zone %d has population %d", z.ID, z.Population)
		}
		if z.Vulnerability < 0 || z.Vulnerability > 1 {
			t.Errorf("zone %d vulnerability %f out of range", z.ID, z.Vulnerability)
		}
	}
}

func TestDensityGradient(t *testing.T) {
	c, err := Generate(Scaled(Birmingham(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// More zones in the inner half-radius disc than the outer annulus of
	// equal width (exponential decay).
	var inner, outer int
	for _, z := range c.Zones {
		if geo.DistanceMeters(c.Center, z.Centroid) < c.Config.RadiusMeters/2 {
			inner++
		} else {
			outer++
		}
	}
	if inner <= outer {
		t.Errorf("density gradient broken: inner=%d outer=%d", inner, outer)
	}
}

func TestPOICountsMatchConfig(t *testing.T) {
	c := smallCity(t)
	for cat, want := range c.Config.POICounts {
		if got := len(c.POIs[cat]); got != want {
			t.Errorf("%s: %d POIs, want %d", cat, got, want)
		}
	}
}

func TestPOIsDistinctIDs(t *testing.T) {
	c := smallCity(t)
	seen := map[int]bool{}
	for _, cat := range AllCategories {
		for _, p := range c.POIs[cat] {
			if seen[p.ID] {
				t.Fatalf("duplicate POI id %d", p.ID)
			}
			seen[p.ID] = true
			if p.Category != cat {
				t.Errorf("POI %d category %s stored under %s", p.ID, p.Category, cat)
			}
		}
	}
}

func TestRoadNetworkConnected(t *testing.T) {
	c := smallCity(t)
	if c.Road.NumNodes() == 0 || c.Road.NumEdges() == 0 {
		t.Fatal("empty road network")
	}
	comps := c.Road.Components()
	if float64(len(comps[0])) < 0.95*float64(c.Road.NumNodes()) {
		t.Errorf("largest road component has %d of %d nodes", len(comps[0]), c.Road.NumNodes())
	}
}

func TestRoadEdgeWeightsAreWalkingSeconds(t *testing.T) {
	c := smallCity(t)
	// Every edge's weight must equal detour-inflated distance at walking
	// speed: seconds ~= meters * 1.2 / 1.25.
	for n := 0; n < c.Road.NumNodes(); n++ {
		id := graph.NodeID(n)
		from := c.Road.Point(id)
		c.Road.Neighbors(id, func(to graph.NodeID, s float64) {
			meters := geo.DistanceMeters(from, c.Road.Point(to))
			want := meters * geo.StreetDetour * geo.WalkSecondsPerMeter
			if s < want*0.99 || s > want*1.01 {
				t.Fatalf("edge %d-%d weight %f, want ~%f", id, to, s, want)
			}
		})
	}
}

func TestTransitFeedValid(t *testing.T) {
	c := smallCity(t)
	if len(c.Feed.Stops) == 0 || len(c.Feed.Routes) == 0 || len(c.Feed.Trips) == 0 {
		t.Fatalf("feed empty: %d stops %d routes %d trips",
			len(c.Feed.Stops), len(c.Feed.Routes), len(c.Feed.Trips))
	}
}

func TestTransitPeakHeadways(t *testing.T) {
	c := smallCity(t)
	ix := gtfs.NewIndex(c.Feed, time.Tuesday)
	// Pick a stop with departures and compare peak vs off-peak frequency.
	stops := ix.StopsWithDepartures()
	if len(stops) == 0 {
		t.Fatal("no departures indexed")
	}
	var bestStop gtfs.StopID
	bestPeak := -1
	for _, s := range stops {
		if n := departuresBetween(ix, s, 7*3600, 9*3600); n > bestPeak {
			bestPeak = n
			bestStop = s
		}
	}
	peak := departuresBetween(ix, bestStop, 7*3600, 9*3600)
	off := departuresBetween(ix, bestStop, 12*3600, 14*3600)
	if peak <= off {
		t.Errorf("peak departures (%d) should exceed off-peak (%d)", peak, off)
	}
}

// departuresBetween counts the departures from stop in [from, to).
func departuresBetween(ix *gtfs.Index, stop gtfs.StopID, from, to gtfs.Seconds) int {
	n := 0
	for _, d := range ix.NextDepartures(stop, from, math.MaxInt) {
		if d.Departure < to {
			n++
		}
	}
	return n
}

func TestTransitRunsOnWeekdaysOnly(t *testing.T) {
	c := smallCity(t)
	sunday := gtfs.NewIndex(c.Feed, time.Sunday)
	if n := len(sunday.StopsWithDepartures()); n != 0 {
		t.Errorf("Sunday index has %d stops with departures, want 0", n)
	}
}

func TestWeld(t *testing.T) {
	c := smallCity(t)
	if len(c.ZoneNode) != len(c.Zones) {
		t.Fatalf("ZoneNode size %d, want %d", len(c.ZoneNode), len(c.Zones))
	}
	for i, nid := range c.ZoneNode {
		if nid < 0 {
			t.Fatalf("zone %d not welded", i)
		}
		d := geo.DistanceMeters(c.Zones[i].Centroid, c.Road.Point(nid))
		if d > c.Config.RoadSpacing*3 {
			t.Errorf("zone %d welded to node %f m away", i, d)
		}
	}
	for sid, nid := range c.StopNode {
		if nid < 0 {
			t.Fatalf("stop %s not welded", sid)
		}
	}
	if len(c.StopNode) != len(c.Feed.Stops) {
		t.Errorf("welded %d stops, want %d", len(c.StopNode), len(c.Feed.Stops))
	}
}

func TestScaled(t *testing.T) {
	base := Birmingham()
	s := Scaled(base, 0.1)
	if s.Zones >= base.Zones || s.Zones < 8 {
		t.Errorf("scaled zones = %d", s.Zones)
	}
	for cat, n := range s.POICounts {
		if n < 1 {
			t.Errorf("%s scaled below 1", cat)
		}
		if n > base.POICounts[cat] {
			t.Errorf("%s grew when scaling down", cat)
		}
	}
	// Degenerate factors fall back to 1.
	same := Scaled(base, -2)
	if same.Zones != base.Zones {
		t.Errorf("invalid factor should keep size, got %d", same.Zones)
	}
}

func TestPresetShapes(t *testing.T) {
	b, c := Birmingham(), Coventry()
	if b.Zones != 3217 || c.Zones != 1014 {
		t.Errorf("preset zone counts %d/%d, want 3217/1014", b.Zones, c.Zones)
	}
	if b.POICounts[POISchool] != 874 || c.POICounts[POISchool] != 230 {
		t.Error("school counts do not match Table I")
	}
	if b.POICounts[POIJobCenter] != 20 || c.POICounts[POIJobCenter] != 2 {
		t.Error("job center counts do not match Table I")
	}
}

func TestDensify(t *testing.T) {
	a := geo.Point{Lat: 52.4, Lon: -1.5}
	b := geo.Offset(a, 2000, 0)
	pts := densify([]geo.Point{a, b}, 400)
	if len(pts) < 4 {
		t.Fatalf("densify produced %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		d := geo.DistanceMeters(pts[i-1], pts[i])
		if d > 600 {
			t.Errorf("gap %d of %f m exceeds spacing", i, d)
		}
	}
	if densify(nil, 100) != nil {
		t.Error("densify(nil) should be nil")
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := Scaled(Coventry(), 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
