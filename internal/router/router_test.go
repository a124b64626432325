package router

import (
	"math"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

var base = geo.Point{Lat: 52.45, Lon: -1.9}

// scenario builds a deterministic hand-wired world:
//
//	road nodes: n0 --600s-- n1 --600s-- n2 --600s-- n3   (walking)
//	bus stops:  SA at n1, SB at n2 (route R, 120s ride, every 10 min from 07:00)
//
// So walking n0->n3 costs 1800s; using the bus replaces the middle 600s walk
// with wait + 120s ride.
type scenario struct {
	road     *graph.Graph
	feed     *gtfs.Feed
	index    *gtfs.Index
	stopNode map[gtfs.StopID]graph.NodeID
	nodes    []graph.NodeID
}

func buildScenario(t *testing.T) *scenario {
	t.Helper()
	g := graph.New(4)
	var nodes []graph.NodeID
	for i := 0; i < 4; i++ {
		nodes = append(nodes, g.AddNode(geo.Offset(base, float64(i)*750, 0)))
	}
	for i := 0; i+1 < 4; i++ {
		if err := g.AddEdge(nodes[i], nodes[i+1], 600); err != nil {
			t.Fatal(err)
		}
	}
	f := gtfs.NewFeed()
	if err := f.AddStop(gtfs.Stop{ID: "SA", Name: "A", Point: g.Point(nodes[1])}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddStop(gtfs.Stop{ID: "SB", Name: "B", Point: g.Point(nodes[2])}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddRoute(gtfs.Route{ID: "R", ShortName: "R", Type: gtfs.RouteBus, FareFlat: 200}); err != nil {
		t.Fatal(err)
	}
	svc := gtfs.Service{ID: "D"}
	for d := 0; d < 7; d++ {
		svc.Weekdays[d] = true
	}
	if err := f.AddService(svc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		dep := gtfs.Seconds(7*3600 + i*600)
		trip := gtfs.Trip{
			ID: gtfs.TripID(rune('a' + i)), RouteID: "R", ServiceID: "D",
			StopTimes: []gtfs.StopTime{
				{StopID: "SA", Arrival: dep, Departure: dep, Seq: 1},
				{StopID: "SB", Arrival: dep + 120, Departure: dep + 120, Seq: 2},
			},
		}
		if err := f.AddTrip(trip); err != nil {
			t.Fatal(err)
		}
	}
	ix := gtfs.NewIndex(f, time.Tuesday)
	sn := map[gtfs.StopID]graph.NodeID{"SA": nodes[1], "SB": nodes[2]}
	return &scenario{road: g, feed: f, index: ix, stopNode: sn, nodes: nodes}
}

func newRouter(t *testing.T, s *scenario) *Router {
	t.Helper()
	r, err := New(s.road, s.index, s.stopNode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	s := buildScenario(t)
	if _, err := New(nil, s.index, s.stopNode, Options{}); err == nil {
		t.Error("nil road should fail")
	}
	if _, err := New(s.road, nil, s.stopNode, Options{}); err == nil {
		t.Error("nil index should fail")
	}
	// A weld outside the road graph is an error, not a panic at search
	// time; graph.InvalidNode alone means unwelded.
	for _, bad := range []graph.NodeID{graph.NodeID(s.road.NumNodes()), graph.InvalidNode - 1} {
		welds := map[gtfs.StopID]graph.NodeID{"SA": s.nodes[1], "SB": bad}
		if _, err := New(s.road, s.index, welds, Options{}); err == nil {
			t.Errorf("weld to node %d should fail", bad)
		}
	}
	// A trip ID the index carries twice is an error: a departure boards
	// the trip it was listed for, and an itinerary names it by ID. Feed
	// edits that bypass AddTrip, as a timetable delta's do, can produce one.
	twinned := s.feed.Clone()
	twin := twinned.Trips[0]
	twin.StopTimes = []gtfs.StopTime{
		{StopID: "SB", Arrival: 7 * 3600, Departure: 7 * 3600, Seq: 1},
		{StopID: "SA", Arrival: 7*3600 + 120, Departure: 7*3600 + 120, Seq: 2},
	}
	twinned.Trips = append(twinned.Trips, twin)
	if _, err := New(s.road, gtfs.NewIndex(twinned, time.Tuesday), s.stopNode, Options{}); err == nil {
		t.Errorf("an index carrying trip %q twice should fail", twin.ID)
	}
	r, err := New(s.road, s.index, map[gtfs.StopID]graph.NodeID{"SA": s.nodes[1], "SB": graph.InvalidNode}, Options{})
	if err != nil {
		t.Fatalf("a stop welded to InvalidNode is unwelded, not an error: %v", err)
	}
	// With SB unwelded the bus leads nowhere: n0->n3 is the 1800s walk.
	j, ok, err := r.Route(s.nodes[0], s.nodes[3], 7*3600+8*60+30)
	if err != nil || !ok || !j.WalkOnly() || j.Duration() != 1800 {
		t.Errorf("route with SB unwelded: %+v ok=%v err=%v, want the 1800s walk", j, ok, err)
	}
}

func TestWalkOnlyJourney(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	// n0 -> n1: pure walk, no useful transit.
	j, ok, err := r.Route(s.nodes[0], s.nodes[1], 8*3600)
	if err != nil || !ok {
		t.Fatalf("route failed: %v ok=%v", err, ok)
	}
	if !j.WalkOnly() {
		t.Errorf("expected walk-only, got %+v", j)
	}
	if j.Duration() != 600 {
		t.Errorf("duration = %v, want 600", j.Duration())
	}
	if j.AccessWalk != 600 || j.Wait != 0 || j.InVehicle != 0 || j.Fare != 0 {
		t.Errorf("components wrong: %+v", j)
	}
}

func TestTransitBeatsWalking(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	// Depart n0 at 07:08:30. Walk to n1 (stop SA) arrives 07:18:30; with
	// 30s board slack the 07:20 bus is caught (wait 90s), arrives n2 at
	// 07:22, walk to n3 arrives 07:32. Pure walking would arrive 07:38:30.
	depart := gtfs.Seconds(7*3600 + 8*60 + 30)
	j, ok, err := r.Route(s.nodes[0], s.nodes[3], depart)
	if err != nil || !ok {
		t.Fatalf("route failed: %v ok=%v", err, ok)
	}
	if j.WalkOnly() {
		t.Fatalf("expected transit use, got walk-only %+v", j)
	}
	wantArrive := gtfs.Seconds(7*3600 + 20*60 + 120 + 600)
	if j.Arrive != wantArrive {
		t.Errorf("arrive = %v, want %v", j.Arrive, wantArrive)
	}
	if j.AccessWalk != 600 {
		t.Errorf("access walk = %v, want 600", j.AccessWalk)
	}
	if j.Wait != 90 {
		t.Errorf("wait = %v, want 90", j.Wait)
	}
	if j.InVehicle != 120 {
		t.Errorf("in-vehicle = %v, want 120", j.InVehicle)
	}
	if j.EgressWalk != 600 {
		t.Errorf("egress walk = %v, want 600", j.EgressWalk)
	}
	if j.Boardings != 1 || j.Fare != 200 {
		t.Errorf("boardings/fare = %d/%v", j.Boardings, j.Fare)
	}
	// Component identity: duration = access + wait + iv + egress.
	sum := j.AccessWalk + j.Wait + j.InVehicle + j.EgressWalk + j.TransferWalk
	if math.Abs(sum-j.Duration()) > 1e-9 {
		t.Errorf("components sum %v != duration %v", sum, j.Duration())
	}
}

func TestNoServiceAfterHours(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	// Last bus 08:50; at 22:00 only walking works.
	j, ok, err := r.Route(s.nodes[0], s.nodes[3], 22*3600)
	if err != nil || !ok {
		t.Fatalf("route failed: %v ok=%v", err, ok)
	}
	if !j.WalkOnly() {
		t.Errorf("late-night journey should be walk-only: %+v", j)
	}
	if j.Duration() != 1800 {
		t.Errorf("duration = %v, want 1800", j.Duration())
	}
}

func TestUnreachableBeyondMaxJourney(t *testing.T) {
	s := buildScenario(t)
	r, err := New(s.road, s.index, s.stopNode, Options{MaxJourney: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := r.Route(s.nodes[0], s.nodes[3], 8*3600)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("journey should exceed MaxJourney=500")
	}
}

func TestRouteInvalidNodes(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	if _, _, err := r.Route(-1, s.nodes[0], 0); err == nil {
		t.Error("invalid origin should error")
	}
	if _, _, err := r.Route(s.nodes[0], 99, 0); err == nil {
		t.Error("invalid destination should error")
	}
}

func TestProfileReachesAllNodes(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	p, err := r.ProfileFrom(s.nodes[0], 8*3600)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.nodes {
		if !p.Reached(n) {
			t.Errorf("node %d unreached", n)
		}
	}
	if p.Reached(graph.NodeID(50)) {
		t.Error("out-of-range node reported reached")
	}
	if _, ok := p.Journey(graph.NodeID(50)); ok {
		t.Error("out-of-range journey reported ok")
	}
	// Origin has a zero-duration journey.
	j, ok := p.Journey(s.nodes[0])
	if !ok || j.Duration() != 0 {
		t.Errorf("origin journey = %+v ok=%v", j, ok)
	}
}

func TestEarliestArrivalMonotoneInDepartureTime(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	// Departing later can never arrive earlier (FIFO network).
	var prev gtfs.Seconds
	for i, dep := range []gtfs.Seconds{7 * 3600, 7*3600 + 300, 7*3600 + 600, 8 * 3600} {
		j, ok, err := r.Route(s.nodes[0], s.nodes[3], dep)
		if err != nil || !ok {
			t.Fatalf("route failed at %v", dep)
		}
		if i > 0 && j.Arrive < prev {
			t.Errorf("departing at %v arrives %v, earlier than previous %v", dep, j.Arrive, prev)
		}
		prev = j.Arrive
	}
}

func TestGeneralizedCost(t *testing.T) {
	p := DefaultCostParams()
	j := Journey{
		AccessWalk: 300, Wait: 120, InVehicle: 600, EgressWalk: 180,
		TransferWalk: 60, Boardings: 2, Fare: 400,
	}
	want := 2.0*(300+60) + 2.0*120 + 1.0*600 + 2.0*180 + 600 + 400/(1000.0/3600.0)
	if got := p.GeneralizedCost(j); math.Abs(got-want) > 1e-9 {
		t.Errorf("GAC = %v, want %v", got, want)
	}
}

func TestGeneralizedCostWalkOnly(t *testing.T) {
	p := DefaultCostParams()
	j := Journey{AccessWalk: 900, Boardings: 0}
	want := 2.0 * 900
	if got := p.GeneralizedCost(j); math.Abs(got-want) > 1e-9 {
		t.Errorf("walk-only GAC = %v, want %v", got, want)
	}
	// No negative transfer penalty for zero boardings.
	if got := p.GeneralizedCost(Journey{}); got != 0 {
		t.Errorf("empty journey GAC = %v", got)
	}
}

func TestJourneyTime(t *testing.T) {
	j := Journey{Depart: 100, Arrive: 400}
	if JourneyTime(j) != 300 {
		t.Errorf("JT = %v", JourneyTime(j))
	}
}

// cityWorld builds a synthetic city and returns a router over it, shared by
// integration tests.
func cityWorld(t testing.TB) (*synth.City, *gtfs.Index, *Router) {
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.12))
	if err != nil {
		t.Fatal(err)
	}
	ix := gtfs.NewIndex(c.Feed, time.Tuesday)
	r, err := New(c.Road, ix, c.StopNode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, ix, r
}

func TestCityIntegrationJourneysSane(t *testing.T) {
	c, _, r := cityWorld(t)
	depart := gtfs.Seconds(8 * 3600)
	prof, err := r.ProfileFrom(c.ZoneNode[0], depart)
	if err != nil {
		t.Fatal(err)
	}
	reached, transit := 0, 0
	for zi := range c.Zones {
		j, ok := prof.Journey(c.ZoneNode[zi])
		if !ok {
			continue
		}
		reached++
		if !j.WalkOnly() {
			transit++
		}
		if j.Duration() < 0 {
			t.Fatalf("negative duration to zone %d", zi)
		}
		sum := j.AccessWalk + j.Wait + j.InVehicle + j.EgressWalk + j.TransferWalk
		if math.Abs(sum-j.Duration()) > 1 {
			t.Fatalf("zone %d: component sum %f != duration %f (%+v)", zi, sum, j.Duration(), j)
		}
		if j.WalkOnly() && (j.Fare != 0 || j.Wait != 0 || j.InVehicle != 0) {
			t.Fatalf("walk-only journey with transit components: %+v", j)
		}
	}
	if reached < len(c.Zones)/2 {
		t.Errorf("only %d of %d zones reached", reached, len(c.Zones))
	}
	if transit == 0 {
		t.Error("no journey used transit; network is implausible")
	}
}

func TestCityTransitImprovesLongTrips(t *testing.T) {
	c, _, r := cityWorld(t)
	// Find a pair of far-apart zones and verify transit beats a pure-walk
	// router (router with empty schedule).
	empty := gtfs.NewIndex(gtfs.NewFeed(), time.Tuesday)
	walkOnly, err := New(c.Road, empty, nil, Options{MaxJourney: 6 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	var o, d int
	bestDist := 0.0
	for i := 0; i < len(c.Zones); i += 7 {
		for j := 0; j < len(c.Zones); j += 13 {
			dist := geo.DistanceMeters(c.Zones[i].Centroid, c.Zones[j].Centroid)
			if dist > bestDist {
				bestDist = dist
				o, d = i, j
			}
		}
	}
	depart := gtfs.Seconds(8 * 3600)
	jt, okT, err := r.Route(c.ZoneNode[o], c.ZoneNode[d], depart)
	if err != nil {
		t.Fatal(err)
	}
	jw, okW, err := walkOnly.Route(c.ZoneNode[o], c.ZoneNode[d], depart)
	if err != nil {
		t.Fatal(err)
	}
	if !okT || !okW {
		t.Skipf("pair unreachable (transit ok=%v walk ok=%v)", okT, okW)
	}
	if jt.Duration() > jw.Duration() {
		t.Errorf("transit (%v s) slower than walking (%v s) across %f m",
			jt.Duration(), jw.Duration(), bestDist)
	}
}

func BenchmarkSPQ(b *testing.B) {
	// Single-pair multimodal query on the scaled city; the paper reports
	// 0.018±0.016 s per SPQ on its full-size network.
	c, _, r := cityWorld(b)
	depart := gtfs.Seconds(8 * 3600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := c.ZoneNode[i%len(c.Zones)]
		d := c.ZoneNode[(i*31+7)%len(c.Zones)]
		if _, _, err := r.Route(o, d, depart); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileOneToMany(b *testing.B) {
	c, _, r := cityWorld(b)
	depart := gtfs.Seconds(8 * 3600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := r.ProfileFrom(c.ZoneNode[i%len(c.Zones)], depart)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}

// BenchmarkProfileTo is the bounded search as the labeler runs it: from a
// zone centroid to the road nodes of a handful of POIs of one category,
// the targets of one start group.
func BenchmarkProfileTo(b *testing.B) {
	c, _, r := cityWorld(b)
	var schools []graph.NodeID
	for _, p := range c.POIs[synth.POISchool] {
		schools = append(schools, c.Road.NearestNode(p.Point))
	}
	const perGroup = 5
	if len(schools) < perGroup {
		b.Fatalf("the test city has %d schools", len(schools))
	}
	targets := make([]graph.NodeID, perGroup)
	depart := gtfs.Seconds(8 * 3600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range targets {
			targets[k] = schools[(i*perGroup+k)%len(schools)]
		}
		p, err := r.ProfileTo(c.ZoneNode[i%len(c.Zones)], depart, targets)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
