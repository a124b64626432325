package hoptree

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/isochrone"
	"accessquery/internal/synth"
)

var base = geo.Point{Lat: 52.45, Lon: -1.9}

// world is a hand-wired scenario with three zones on a line, a road grid
// under them, and one bus route Z0 -> Z1 -> Z2 running every 15 min.
//
//	zone 0 at 0 m, zone 1 at 3000 m, zone 2 at 6000 m
//	stops S0/S1/S2 200 m from each zone centroid
type world struct {
	zonePts []geo.Point
	road    *graph.Graph
	feed    *gtfs.Feed
	isos    *isochrone.Set
	nodes   []graph.NodeID
}

// Leaf returns the leaf for a zone, or nil when the zone is not reachable in
// one hop. The returned pointer aliases the tree's leaf slice and must be
// treated as read-only.
func (t *Tree) Leaf(zone int) *Leaf {
	i := sort.Search(len(t.Leaves), func(i int) bool { return int(t.Leaves[i].Zone) >= zone })
	if i < len(t.Leaves) && int(t.Leaves[i].Zone) == zone {
		return &t.Leaves[i]
	}
	return nil
}

func buildWorld(t *testing.T) *world {
	t.Helper()
	w := &world{}
	w.zonePts = []geo.Point{
		base,
		geo.Offset(base, 3000, 0),
		geo.Offset(base, 6000, 0),
	}
	// Road: chain of nodes every 100 m along the 6 km corridor.
	w.road = graph.New(61)
	for i := 0; i <= 60; i++ {
		w.nodes = append(w.nodes, w.road.AddNode(geo.Offset(base, float64(i)*100, 0)))
	}
	for i := 0; i < 60; i++ {
		if err := w.road.AddEdge(w.nodes[i], w.nodes[i+1], 80); err != nil {
			t.Fatal(err)
		}
	}
	w.feed = gtfs.NewFeed()
	stopPts := []geo.Point{
		geo.Offset(base, 200, 0),
		geo.Offset(base, 3200, 0),
		geo.Offset(base, 6200, 0),
	}
	// Keep stop 2 within the corridor (corridor ends at 6000 m).
	stopPts[2] = geo.Offset(base, 5800, 0)
	for i, p := range stopPts {
		id := gtfs.StopID([]string{"S0", "S1", "S2"}[i])
		if err := w.feed.AddStop(gtfs.Stop{ID: id, Name: string(id), Point: p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.feed.AddRoute(gtfs.Route{ID: "R", ShortName: "R", Type: gtfs.RouteBus, FareFlat: 200}); err != nil {
		t.Fatal(err)
	}
	svc := gtfs.Service{ID: "D"}
	for d := 0; d < 7; d++ {
		svc.Weekdays[d] = true
	}
	if err := w.feed.AddService(svc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		dep := gtfs.Seconds(7*3600 + i*900)
		tr := gtfs.Trip{
			ID: gtfs.TripID("T" + string(rune('a'+i))), RouteID: "R", ServiceID: "D",
			StopTimes: []gtfs.StopTime{
				{StopID: "S0", Arrival: dep, Departure: dep, Seq: 1},
				{StopID: "S1", Arrival: dep + 400, Departure: dep + 410, Seq: 2},
				{StopID: "S2", Arrival: dep + 800, Departure: dep + 800, Seq: 3},
			},
		}
		if err := w.feed.AddTrip(tr); err != nil {
			t.Fatal(err)
		}
	}
	zoneNodes := []graph.NodeID{w.nodes[0], w.nodes[30], w.nodes[60]}
	isos, err := isochrone.ComputeSetParallel(w.road, w.zonePts, zoneNodes, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.isos = isos
	return w
}

func amPeak() gtfs.Interval {
	return gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "AM peak"}
}

func newBuilder(t *testing.T, w *world) *Builder {
	t.Helper()
	b, err := NewBuilder(w.feed, amPeak(), w.zonePts, w.isos)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBuilderValidation(t *testing.T) {
	w := buildWorld(t)
	if _, err := NewBuilder(nil, amPeak(), w.zonePts, w.isos); err == nil {
		t.Error("nil feed should fail")
	}
	if _, err := NewBuilder(w.feed, amPeak(), w.zonePts[:1], w.isos); err == nil {
		t.Error("mismatched zone/isochrone lengths should fail")
	}
}

func TestOutboundTree(t *testing.T) {
	w := buildWorld(t)
	b := newBuilder(t, w)
	ob, err := b.Outbound(0)
	if err != nil {
		t.Fatal(err)
	}
	if ob.Direction != Outbound || ob.Zone != 0 {
		t.Errorf("tree meta wrong: %+v", ob)
	}
	// From zone 0, one hop reaches zones 1 and 2 via route R.
	if ob.Size() != 2 {
		t.Fatalf("outbound size = %d, want 2 (leaves %v)", ob.Size(), ob.Leaves)
	}
	l1 := ob.Leaf(1)
	if l1 == nil {
		t.Fatal("zone 1 missing from outbound tree")
	}
	// 8 departures in [07:00, 09:00) all reach zone 1.
	if l1.Visits != 8 {
		t.Errorf("visits = %d, want 8", l1.Visits)
	}
	if l1.RouteCount() != 1 {
		t.Errorf("route count = %d, want 1", l1.RouteCount())
	}
	// Journey = walk (~200m * 0.8 * 1.2 = 192 s) + in-vehicle 400 s.
	avg := l1.AvgJourney()
	if avg < 500 || avg > 700 {
		t.Errorf("avg journey = %f, want ~590", avg)
	}
	if l1.BestWalk <= 0 || l1.BestWalk > 600 {
		t.Errorf("best walk = %f", l1.BestWalk)
	}
	// Root never appears as a leaf.
	if ob.Leaf(0) != nil {
		t.Error("root zone must not be a leaf")
	}
}

func TestInboundTree(t *testing.T) {
	w := buildWorld(t)
	b := newBuilder(t, w)
	ib, err := b.Inbound(2)
	if err != nil {
		t.Fatal(err)
	}
	// Zone 2 is reachable from zones 0 and 1 (upstream stops).
	if ib.Size() != 2 {
		t.Fatalf("inbound size = %d, want 2 (leaves %v)", ib.Size(), ib.Leaves)
	}
	l0 := ib.Leaf(0)
	if l0 == nil {
		t.Fatal("zone 0 missing from inbound tree of zone 2")
	}
	if l0.Visits != 8 {
		t.Errorf("visits = %d, want 8", l0.Visits)
	}
	// Journey = in-vehicle 800 s + egress walk (~192 s).
	if avg := l0.AvgJourney(); avg < 900 || avg > 1100 {
		t.Errorf("avg journey = %f, want ~990", avg)
	}
}

func TestInboundOfFirstStopIsEmpty(t *testing.T) {
	w := buildWorld(t)
	b := newBuilder(t, w)
	// Nothing arrives at zone 0's stop (S0 is the route's first stop).
	ib, err := b.Inbound(0)
	if err != nil {
		t.Fatal(err)
	}
	if ib.Size() != 0 {
		t.Errorf("inbound tree of zone 0 should be empty, got %v", ib.Leaves)
	}
	// Symmetrically, outbound from the terminal zone is empty.
	ob, err := b.Outbound(2)
	if err != nil {
		t.Fatal(err)
	}
	if ob.Size() != 0 {
		t.Errorf("outbound tree of zone 2 should be empty, got %v", ob.Leaves)
	}
}

func TestIntervalFiltersDepartures(t *testing.T) {
	w := buildWorld(t)
	// A window covering only the first two departures.
	narrow := gtfs.Interval{Start: 7 * 3600, End: 7*3600 + 1800, Day: time.Tuesday}
	b, err := NewBuilder(w.feed, narrow, w.zonePts, w.isos)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Outbound(0)
	if err != nil {
		t.Fatal(err)
	}
	if l := ob.Leaf(1); l == nil || l.Visits != 2 {
		t.Errorf("narrow window visits = %+v, want 2", l)
	}
}

func TestWeekdayFilter(t *testing.T) {
	w := buildWorld(t)
	// Make the service weekday-only, then ask for Sunday.
	f2 := gtfs.NewFeed()
	for _, s := range w.feed.Stops {
		if err := f2.AddStop(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range w.feed.Routes {
		if err := f2.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	wk := gtfs.Service{ID: "D"} // same ID the trips reference
	for d := time.Monday; d <= time.Friday; d++ {
		wk.Weekdays[d] = true
	}
	if err := f2.AddService(wk); err != nil {
		t.Fatal(err)
	}
	for _, tr := range w.feed.Trips {
		if err := f2.AddTrip(tr); err != nil {
			t.Fatal(err)
		}
	}
	sunday := gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Sunday}
	b, err := NewBuilder(f2, sunday, w.zonePts, w.isos)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Outbound(0)
	if err != nil {
		t.Fatal(err)
	}
	if ob.Size() != 0 {
		t.Errorf("Sunday tree should be empty, got %v", ob.Leaves)
	}
}

func TestBuildZoneOutOfRange(t *testing.T) {
	w := buildWorld(t)
	b := newBuilder(t, w)
	if _, err := b.Outbound(-1); err == nil {
		t.Error("negative zone should fail")
	}
	if _, err := b.Inbound(99); err == nil {
		t.Error("out-of-range zone should fail")
	}
}

func TestForestAndChaining(t *testing.T) {
	w := buildWorld(t)
	b := newBuilder(t, w)
	f, err := BuildForestParallel(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Zones() != 3 {
		t.Fatalf("forest covers %d zones", f.Zones())
	}
	if f.Outbound(0) == nil || f.Inbound(2) == nil {
		t.Fatal("forest trees missing")
	}
	if f.Outbound(-1) != nil || f.Inbound(5) != nil {
		t.Error("out-of-range lookups should be nil")
	}
	// One hop from zone 0 reaches everything on this line.
	hops := make([]int32, f.Zones())
	var scratch ReachScratch
	if n := f.ReachableInto(hops, 0, 1, &scratch); n != 3 {
		t.Errorf("1-hop reach count = %d (%v)", n, hops)
	}
	if hops[0] != 0 || hops[1] != 1 || hops[2] != 1 {
		t.Errorf("hop counts wrong: %v", hops)
	}
	// Zero hops: only the start.
	if n := f.ReachableInto(hops, 1, 0, &scratch); n != 1 {
		t.Errorf("0-hop reach count = %d (%v)", n, hops)
	}
	if hops[0] != -1 || hops[1] != 0 || hops[2] != -1 {
		t.Errorf("0-hop counts wrong: %v", hops)
	}
	if f.ReachableInto(hops, -1, 2, &scratch) != 0 {
		t.Error("invalid start should report zero reachable zones")
	}
}

func TestSyntheticCityForest(t *testing.T) {
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
	if err != nil {
		t.Fatal(err)
	}
	zonePts := make([]geo.Point, len(c.Zones))
	zoneNodes := make([]graph.NodeID, len(c.Zones))
	for i, z := range c.Zones {
		zonePts[i] = z.Centroid
		zoneNodes[i] = c.ZoneNode[i]
	}
	isos, err := isochrone.ComputeSetParallel(c.Road, zonePts, zoneNodes, isochrone.DefaultTauSeconds, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(c.Feed, amPeak(), zonePts, isos)
	if err != nil {
		t.Fatal(err)
	}
	f, err := BuildForestParallel(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Most zones should reach at least one other zone in a hop — the bus
	// network covers the city.
	withLeaves := 0
	for z := 0; z < f.Zones(); z++ {
		if f.Outbound(z).Size() > 0 {
			withLeaves++
		}
	}
	if withLeaves < f.Zones()/3 {
		t.Errorf("only %d of %d zones have outbound connectivity", withLeaves, f.Zones())
	}
	// Chaining two hops reaches at least as many zones as one hop.
	hops := make([]int32, f.Zones())
	one := f.ReachableInto(hops, 0, 1, nil)
	two := f.ReachableInto(hops, 0, 2, nil)
	if two < one {
		t.Errorf("2-hop reach %d < 1-hop reach %d", two, one)
	}
}

func BenchmarkBuildTree(b *testing.B) {
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
	if err != nil {
		b.Fatal(err)
	}
	zonePts := make([]geo.Point, len(c.Zones))
	zoneNodes := make([]graph.NodeID, len(c.Zones))
	for i, z := range c.Zones {
		zonePts[i] = z.Centroid
		zoneNodes[i] = c.ZoneNode[i]
	}
	isos, err := isochrone.ComputeSetParallel(c.Road, zonePts, zoneNodes, isochrone.DefaultTauSeconds, 1)
	if err != nil {
		b.Fatal(err)
	}
	builder, err := NewBuilder(c.Feed, amPeak(), zonePts, isos)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Outbound(i % len(c.Zones)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBuildForestParallelMatchesSerial(t *testing.T) {
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
	if err != nil {
		t.Fatal(err)
	}
	zonePts := make([]geo.Point, len(c.Zones))
	zoneNodes := make([]graph.NodeID, len(c.Zones))
	for i, z := range c.Zones {
		zonePts[i] = z.Centroid
		zoneNodes[i] = c.ZoneNode[i]
	}
	isos, err := isochrone.ComputeSetParallel(c.Road, zonePts, zoneNodes, isochrone.DefaultTauSeconds, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialBuilder, err := NewBuilder(c.Feed, amPeak(), zonePts, isos)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := BuildForestParallel(serialBuilder, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		b, err := NewBuilder(c.Feed, amPeak(), zonePts, isos)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := BuildForestParallel(b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("workers=%d: parallel forest differs from serial", workers)
		}
	}
	again, err := BuildForestParallel(serialBuilder, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, again) {
		t.Error("a second build on the same builder differs from the first")
	}
}

// TestReachableIntoAllocFree pins the warm-path contract: with a grown
// scratch and a caller-owned dst, repeated reach expansions allocate
// nothing.
func TestReachableIntoAllocFree(t *testing.T) {
	w := buildWorld(t)
	b := newBuilder(t, w)
	f, err := BuildForestParallel(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, f.Zones())
	var s ReachScratch
	f.ReachableInto(dst, 0, 2, &s) // grow the scratch once
	if n := testing.AllocsPerRun(100, func() {
		f.ReachableInto(dst, 0, 2, &s)
	}); n != 0 {
		t.Errorf("warm ReachableInto allocates %.1f objects/op, want 0", n)
	}
}
