package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// unreachedRef marks a node the reference search never reached.
const unreachedRef = gtfs.Seconds(-1)

// referenceArrivals is the exact reference the production search must
// equal: a label-setting earliest-arrival search written as plainly as
// possible — no heap, no pooled arena, no cost components. It keeps one
// arrival time and one settled flag per road node in plain arrays, picks
// the next node by a linear scan for the smallest unsettled arrival
// (O(n²)), and relaxes it exactly once under the same Options: walking
// edges from graph.Neighbors, and the next departures from
// gtfs.Index.NextDepartures ridden forward along the trip's stop times.
//
// Because every relaxation out of a node depends only on the node's
// arrival time and never arrives earlier than it, each node is settled
// once at a time that does not depend on how ties between equal arrivals
// are broken. So both the arrival array and the number of relaxation
// attempts are functions of the network alone, and the production
// search's heap order is free to differ.
//
// The reference rides every boarded trip to its end, but it counts a ride
// relaxation only the first time this search relaxes that (trip, stop
// position): a trip's arrival there is fixed, so a second relaxation of it
// can never win, and the production search, which rides each trip once,
// does not make it. rerides counts the second relaxations it left out.
// tripsByID maps each of the index's trips by its ID.
func tripsByID(ix *gtfs.Index) map[gtfs.TripID]*gtfs.Trip {
	out := make(map[gtfs.TripID]*gtfs.Trip, len(ix.Trips()))
	for i := range ix.Trips() {
		out[ix.Trips()[i].ID] = &ix.Trips()[i]
	}
	return out
}

func referenceArrivals(road *graph.Graph, ix *gtfs.Index, stopNode map[gtfs.StopID]graph.NodeID, opts Options, origin graph.NodeID, depart gtfs.Seconds) (arrive []gtfs.Seconds, relaxations, rerides int64) {
	opts = opts.withDefaults()
	n := road.NumNodes()
	stopsAt := make([][]gtfs.StopID, n)
	for sid, nid := range stopNode {
		if nid != graph.InvalidNode {
			stopsAt[nid] = append(stopsAt[nid], sid)
		}
	}
	arrive = make([]gtfs.Seconds, n)
	for i := range arrive {
		arrive[i] = unreachedRef
	}
	settled := make([]bool, n)
	relax := func(to graph.NodeID, at gtfs.Seconds) {
		if arrive[to] == unreachedRef || at < arrive[to] {
			arrive[to] = at
		}
	}
	type ride struct {
		trip gtfs.TripID
		pos  int
	}
	rode := make(map[ride]bool)
	trips := tripsByID(ix)
	arrive[origin] = depart
	deadline := depart + opts.MaxJourney
	for {
		u := graph.NodeID(-1)
		for v := 0; v < n; v++ {
			if settled[v] || arrive[v] == unreachedRef {
				continue
			}
			if u < 0 || arrive[v] < arrive[u] {
				u = graph.NodeID(v)
			}
		}
		if u < 0 {
			return arrive, relaxations, rerides
		}
		settled[u] = true
		now := arrive[u]
		road.Neighbors(u, func(to graph.NodeID, seconds float64) {
			if at := now + gtfs.Seconds(seconds+0.5); at <= deadline {
				relaxations++
				relax(to, at)
			}
		})
		for _, sid := range stopsAt[u] {
			for _, dep := range ix.NextDepartures(sid, now+opts.BoardSlack, opts.MaxDeparturesPerStop) {
				if dep.Departure-now > opts.MaxWait {
					break
				}
				trip := trips[dep.TripID]
				for pos := dep.StopIndex + 1; pos < len(trip.StopTimes); pos++ {
					st := trip.StopTimes[pos]
					if st.Arrival > deadline {
						break
					}
					if node, ok := stopNode[st.StopID]; ok && node != graph.InvalidNode {
						if k := (ride{trip.ID, pos}); rode[k] {
							rerides++
						} else {
							rode[k] = true
							relaxations++
						}
						relax(node, st.Arrival)
					}
				}
			}
		}
	}
}

// checkAgainstReference runs one production profile and requires the
// arrival time (or unreachability) of every road node, and the number of
// relaxation attempts, to equal the reference's.
func checkAgainstReference(t *testing.T, r *Router, w *scenario, origin graph.NodeID, depart gtfs.Seconds) {
	t.Helper()
	want, wantRelaxed, _ := referenceArrivals(w.road, w.index, w.stopNode, r.opts, origin, depart)
	before := mRelaxations.Value()
	p, err := r.ProfileFrom(origin, depart)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if got := mRelaxations.Value() - before; got != wantRelaxed {
		t.Errorf("origin %d depart %d: %d relaxations, reference %d", origin, depart, got, wantRelaxed)
	}
	for v := range want {
		node := graph.NodeID(v)
		j, ok := p.Journey(node)
		switch {
		case ok != (want[v] != unreachedRef):
			t.Fatalf("origin %d depart %d node %d: reached=%v, reference arrival %d", origin, depart, node, ok, want[v])
		case ok && j.Arrive != want[v]:
			t.Fatalf("origin %d depart %d node %d: arrive %d, reference %d", origin, depart, node, j.Arrive, want[v])
		}
	}
}

func TestProfileMatchesReferenceScenario(t *testing.T) {
	s := buildScenario(t)
	for _, opts := range []Options{{}, {MaxJourney: 900}, {MaxWait: 120, BoardSlack: 90}} {
		r, err := New(s.road, s.index, s.stopNode, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, origin := range s.nodes {
			for _, depart := range []gtfs.Seconds{6*3600 + 50*60, 7*3600 + 5*60, 8*3600 + 59*60, 22 * 3600} {
				checkAgainstReference(t, r, s, origin, depart)
			}
		}
	}
}

func TestProfileMatchesReferenceCity(t *testing.T) {
	c, ix, r := cityWorld(t)
	w := &scenario{road: c.Road, index: ix, stopNode: c.StopNode}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		// Zone centroids and arbitrary road nodes alternate as origins.
		origin := c.ZoneNode[rng.Intn(len(c.ZoneNode))]
		if i%2 == 1 {
			origin = graph.NodeID(rng.Intn(c.Road.NumNodes()))
		}
		for _, depart := range []gtfs.Seconds{7*3600 + 13, 8 * 3600, 21*3600 + 30*60} {
			checkAgainstReference(t, r, w, origin, depart)
		}
	}
}

// TestRouterDeterministicAcrossBuilds pins that nothing about a router
// depends on map iteration order: two routers over the same inputs compile
// the same timetable, welded stops in the same per-node order, and do the
// same search work.
func TestRouterDeterministicAcrossBuilds(t *testing.T) {
	c, ix, a := cityWorld(t)
	b, err := New(c.Road, ix, c.StopNode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.tt, b.tt) {
		t.Fatal("the compiled timetable differs between two routers built from the same inputs")
	}
	shared := false
	for n := 0; n < c.Road.NumNodes(); n++ {
		shared = shared || len(a.tt.stopsAt(graph.NodeID(n))) > 1
	}
	if !shared {
		t.Fatal("no road node carries two stops; the test city cannot show an ordering difference")
	}
	improvements := func(r *Router) int64 {
		before := mImprovements.Value()
		for z := 0; z < len(c.ZoneNode); z += 9 {
			p, err := r.ProfileFrom(c.ZoneNode[z], 8*3600)
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
		return mImprovements.Value() - before
	}
	if ia, ib := improvements(a), improvements(b); ia != ib {
		t.Errorf("improvement counts differ between identical routers: %d vs %d", ia, ib)
	}
}

// buildFixture is a hand-wired world with the cases the synthetic city
// lacks, each of which the compiled timetable must carry exactly:
//
//	road nodes: n0 -600s- n1 -600s- n2 -600s- n3 -600s- n4 -600s- n5
//	trip A (R1, 150p): S1@n1 07:00, SU 07:02, SI 07:03, S4@n4 07:06
//	trip P (R1, 150p): SP@n2 07:10, S4@n4 07:13
//	trip Q (R2, 250p): SQ@n2 07:10, S4@n4 07:13
//	template F (R3, 100p): S1 07:05, SP 07:08, S4 07:12, every 10 min
//	                       07:05-08:05 (runs F#0..F#5; F itself never runs)
//
// SU is missing from the welding and SI is welded to graph.InvalidNode, so
// trip A rides past two unwelded stops mid-trip. SP and SQ share node n2
// and were added to the feed out of StopID order; a traveller boarding at
// n2 after 07:08 reaches n4 at 07:13 on P and on Q, a tie that SP, first
// in StopID order, wins.
func buildFixture(t *testing.T) *scenario {
	t.Helper()
	g := graph.New(6)
	var nodes []graph.NodeID
	for i := 0; i < 6; i++ {
		nodes = append(nodes, g.AddNode(geo.Offset(base, float64(i)*750, 0)))
	}
	for i := 0; i+1 < 6; i++ {
		if err := g.AddEdge(nodes[i], nodes[i+1], 600); err != nil {
			t.Fatal(err)
		}
	}
	f := gtfs.NewFeed()
	for _, s := range []struct {
		id gtfs.StopID
		at int
	}{{"S1", 1}, {"SU", 1}, {"SI", 2}, {"SQ", 2}, {"SP", 2}, {"S4", 4}} {
		if err := f.AddStop(gtfs.Stop{ID: s.id, Name: string(s.id), Point: g.Point(nodes[s.at])}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []gtfs.Route{{ID: "R1", FareFlat: 150}, {ID: "R2", FareFlat: 250}, {ID: "R3", FareFlat: 100}} {
		if err := f.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	svc := gtfs.Service{ID: "D"}
	for d := 0; d < 7; d++ {
		svc.Weekdays[d] = true
	}
	if err := f.AddService(svc); err != nil {
		t.Fatal(err)
	}
	hms := func(h, m int) gtfs.Seconds { return gtfs.Seconds(h*3600 + m*60) }
	trip := func(id gtfs.TripID, route gtfs.RouteID, stops []gtfs.StopID, times []gtfs.Seconds) {
		tr := gtfs.Trip{ID: id, RouteID: route, ServiceID: "D"}
		for i, sid := range stops {
			tr.StopTimes = append(tr.StopTimes, gtfs.StopTime{StopID: sid, Arrival: times[i], Departure: times[i], Seq: i + 1})
		}
		if err := f.AddTrip(tr); err != nil {
			t.Fatal(err)
		}
	}
	trip("A", "R1", []gtfs.StopID{"S1", "SU", "SI", "S4"}, []gtfs.Seconds{hms(7, 0), hms(7, 2), hms(7, 3), hms(7, 6)})
	trip("P", "R1", []gtfs.StopID{"SP", "S4"}, []gtfs.Seconds{hms(7, 10), hms(7, 13)})
	trip("Q", "R2", []gtfs.StopID{"SQ", "S4"}, []gtfs.Seconds{hms(7, 10), hms(7, 13)})
	// F runs every 10 minutes from 07:05 to 07:55: runs F#0 to F#5.
	for n := 0; n < 6; n++ {
		d := gtfs.Seconds(n * 600)
		trip(gtfs.TripID(fmt.Sprintf("F#%d", n)), "R3", []gtfs.StopID{"S1", "SP", "S4"}, []gtfs.Seconds{hms(7, 5) + d, hms(7, 8) + d, hms(7, 12) + d})
	}
	ix := gtfs.NewIndex(f, time.Tuesday)
	sn := map[gtfs.StopID]graph.NodeID{
		"S1": nodes[1], "SI": graph.InvalidNode, "SP": nodes[2], "SQ": nodes[2], "S4": nodes[4],
	}
	return &scenario{road: g, feed: f, index: ix, stopNode: sn, nodes: nodes}
}

// fixtureDeparts are the fixture's start times: before service, on trip
// A, on a run of F, into the P/Q tie from n2, and late.
var fixtureDeparts = []gtfs.Seconds{6*3600 + 50*60, 6*3600 + 58*60, 7*3600 + 3*60, 7*3600 + 8*60, 7*3600 + 40*60}

func TestProfileMatchesReferenceFixture(t *testing.T) {
	s := buildFixture(t)
	for _, opts := range []Options{{}, {MaxJourney: 900}, {MaxDeparturesPerStop: 1}} {
		r, err := New(s.road, s.index, s.stopNode, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, origin := range s.nodes {
			for _, depart := range fixtureDeparts {
				checkAgainstReference(t, r, s, origin, depart)
			}
		}
	}
}

// TestRideOnceFixture pins the drop in relaxations where the fixture's
// run F#1 is boarded at two of its stops in one search, once in each
// order. From n1 at 06:58 it is boarded at S1 and ridden to S4; n2,
// settled at 07:08, would board it again at SP, and that boarding is
// skipped. From n2 at 07:00 it is boarded at SP and ridden to S4; n1,
// settled at 07:10, boards it upstream at S1 and rides it only to SP. In
// both the search makes the one relaxation of S4 at 07:22 once instead of
// twice, and every arrival stays the reference's.
func TestRideOnceFixture(t *testing.T) {
	s := buildFixture(t)
	r := newRouter(t, s)
	for _, c := range []struct {
		origin graph.NodeID
		depart gtfs.Seconds
	}{{s.nodes[1], 6*3600 + 58*60}, {s.nodes[2], 7 * 3600}} {
		_, want, rerides := referenceArrivals(s.road, s.index, s.stopNode, r.opts, c.origin, c.depart)
		if rerides != 1 {
			t.Fatalf("origin %d depart %d: the reference rides %d (trip, stop) pairs twice, want 1", c.origin, c.depart, rerides)
		}
		got := relaxationsOf(func() {
			p, err := r.ProfileFrom(c.origin, c.depart)
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		})
		if got != want {
			t.Errorf("origin %d depart %d: %d relaxations, want %d (one fewer than riding every boarding to its end)", c.origin, c.depart, got, want)
		}
		checkAgainstReference(t, r, s, c.origin, c.depart)
	}
}

func TestRouteDetailedMatchesReferenceFixture(t *testing.T) {
	s := buildFixture(t)
	r := newRouter(t, s)
	for _, o := range s.nodes {
		for _, d := range s.nodes {
			for _, depart := range fixtureDeparts {
				sameAsReference(t, r, s, o, d, depart)
			}
		}
	}
	// The P/Q tie, pinned outright: StopID order boards at SP.
	_, legs, ok, err := r.RouteDetailed(s.nodes[2], s.nodes[4], 7*3600+8*60)
	if err != nil || !ok {
		t.Fatalf("n2->n4: err=%v ok=%v", err, ok)
	}
	if len(legs) != 1 || legs[0].BoardStop != "SP" || legs[0].Trip != "P" || legs[0].Arrive != 7*3600+13*60 {
		t.Errorf("n2->n4 at 07:08: legs %+v, want one ride on P boarded at SP arriving 07:13", legs)
	}
	// Trip A passes SU and SI without alighting: from n1 at 06:58 it is
	// ridden straight to S4.
	_, legs, ok, err = r.RouteDetailed(s.nodes[1], s.nodes[4], 6*3600+58*60)
	if err != nil || !ok {
		t.Fatalf("n1->n4: err=%v ok=%v", err, ok)
	}
	if len(legs) != 1 || legs[0].Trip != "A" || legs[0].AlightStop != "S4" {
		t.Errorf("n1->n4 at 06:58: legs %+v, want one ride on A to S4", legs)
	}
}
