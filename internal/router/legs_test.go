package router

import (
	"container/heap"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// refPQ is the frontier with container/heap's interface: the heap the
// reference loop below runs on, and the one the hand-written push/pop are
// checked against.
type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].arrive < q[j].arrive }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// routeDetailedReference is the itinerary search as a loop of its own —
// container/heap, two fresh n-sized arrays, no target bound, the schedule
// read through gtfs.Index.NextDepartures and Index.Trip and the welding
// through the stopNode map rather than the router's compiled timetable —
// kept as the reference RouteDetailed must equal. Stops at a node are
// tried in StopID order, the order that breaks arrival-time ties.
func routeDetailedReference(r *Router, w *scenario, origin, dest graph.NodeID, depart gtfs.Seconds) (Journey, []Leg, bool, error) {
	n := w.road.NumNodes()
	if origin < 0 || int(origin) >= n {
		return Journey{}, nil, false, fmt.Errorf("router: invalid origin node %d", origin)
	}
	if dest < 0 || int(dest) >= n {
		return Journey{}, nil, false, fmt.Errorf("router: invalid destination node %d", dest)
	}
	welded := func(sid gtfs.StopID) (graph.NodeID, bool) {
		nid, ok := w.stopNode[sid]
		return nid, ok && nid != graph.InvalidNode
	}
	sids := make([]gtfs.StopID, 0, len(w.stopNode))
	for sid := range w.stopNode {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	stopsAt := make([][]gtfs.StopID, n)
	for _, sid := range sids {
		if nid, ok := welded(sid); ok {
			stopsAt[nid] = append(stopsAt[nid], sid)
		}
	}
	labels := make([]label, n)
	// incoming[v] is the leg v's label arrived by, Arrive left unset.
	incoming := make([]Leg, n)
	labels[origin] = label{arrive: depart, reached: true}
	q := refPQ{{node: origin, arrive: depart}}
	deadline := depart + r.opts.MaxJourney
	trips := tripsByID(w.index)
	improveTracked := func(node graph.NodeID, nl label, in Leg) {
		cur := &labels[node]
		if cur.reached && nl.arrive >= cur.arrive {
			return
		}
		nl.reached = true
		*cur = nl
		incoming[node] = in
		heap.Push(&q, pqItem{node: node, arrive: nl.arrive})
	}
	for q.Len() > 0 {
		cur := heap.Pop(&q).(pqItem)
		l := &labels[cur.node]
		if cur.arrive > l.arrive || l.settled {
			continue
		}
		l.settled = true
		curLabel := *l
		curNode := cur.node

		w.road.Neighbors(curNode, func(to graph.NodeID, seconds float64) {
			wsec := gtfs.Seconds(seconds + 0.5)
			na := curLabel.arrive + wsec
			if na > deadline {
				return
			}
			nl := curLabel
			nl.arrive = na
			nl.settled = false
			if curLabel.boardings == 0 {
				nl.accessWalk += float32(wsec)
			} else {
				nl.egressWalk += float32(wsec)
			}
			improveTracked(to, nl, Leg{Mode: LegWalk, From: curNode, To: to, Depart: curLabel.arrive})
		})

		for _, sid := range stopsAt[curNode] {
			earliest := curLabel.arrive + r.opts.BoardSlack
			deps := w.index.NextDepartures(sid, earliest, r.opts.MaxDeparturesPerStop)
			for _, dep := range deps {
				waitHere := dep.Departure - curLabel.arrive
				if waitHere > r.opts.MaxWait {
					break
				}
				trip := trips[dep.TripID]
				route, _ := w.index.Feed().Route(trip.RouteID)
				boarded := curLabel
				boarded.wait += float32(waitHere)
				boarded.boardings++
				boarded.fare += float32(route.FareFlat)
				boarded.transferWalk += boarded.egressWalk
				boarded.egressWalk = 0
				boardDep := dep.Departure
				for si := dep.StopIndex + 1; si < len(trip.StopTimes); si++ {
					st := trip.StopTimes[si]
					if st.Arrival > deadline {
						break
					}
					node, ok := welded(st.StopID)
					if !ok {
						continue
					}
					nl := boarded
					nl.arrive = st.Arrival
					nl.inVehicle += float32(st.Arrival - boardDep)
					nl.settled = false
					improveTracked(node, nl, Leg{
						Mode: LegRide, From: curNode, To: node, Depart: boardDep,
						Route: trip.RouteID, Trip: trip.ID,
						BoardStop: sid, AlightStop: st.StopID,
					})
				}
			}
		}
	}
	if !labels[dest].reached {
		return Journey{}, nil, false, nil
	}
	// Walk the parent chain back, then emit it forward with consecutive
	// walks merged.
	var rev []Leg
	for at := dest; at != origin; at = incoming[at].From {
		leg := incoming[at]
		leg.Arrive = labels[at].arrive
		rev = append(rev, leg)
	}
	var legs []Leg
	for i := len(rev) - 1; i >= 0; i-- {
		if last := len(legs) - 1; rev[i].Mode == LegWalk && last >= 0 && legs[last].Mode == LegWalk {
			legs[last].To, legs[last].Arrive = rev[i].To, rev[i].Arrive
			continue
		}
		legs = append(legs, rev[i])
	}
	return journeyFrom(depart, labels[dest]), legs, true, nil
}

// sameAsReference asserts RouteDetailed equals the reference loop on the
// journey (all nine fields), reachability and legs, and returns the
// journey and ok.
func sameAsReference(t *testing.T, r *Router, w *scenario, o, d graph.NodeID, depart gtfs.Seconds) (Journey, bool) {
	t.Helper()
	wantJ, wantLegs, wantOK, err := routeDetailedReference(r, w, o, d, depart)
	if err != nil {
		t.Fatal(err)
	}
	gotJ, gotLegs, gotOK, err := r.RouteDetailed(o, d, depart)
	if err != nil {
		t.Fatal(err)
	}
	if gotJ != wantJ || gotOK != wantOK || !reflect.DeepEqual(gotLegs, wantLegs) {
		t.Fatalf("%d->%d at %v: RouteDetailed %+v %v %+v; reference %+v %v %+v",
			o, d, depart, gotJ, gotOK, gotLegs, wantJ, wantOK, wantLegs)
	}
	return gotJ, gotOK
}

// TestRouteDetailedMatchesReference: the itinerary search that is ProfileTo
// plus predecessor recording returns exactly what the old stand-alone loop
// did — on city pairs at three departures under the default and a
// 20-minute horizon (which supplies unreachable pairs), with origin =
// destination among them, and on every pair of the hand-wired scenario.
func TestRouteDetailedMatchesReference(t *testing.T) {
	c, ix, def := cityWorld(t)
	w := &scenario{road: c.Road, index: ix, stopNode: c.StopNode}
	short, err := New(c.Road, ix, c.StopNode, Options{MaxJourney: 1200})
	if err != nil {
		t.Fatal(err)
	}
	sawSelf, sawUnreachable, sawRide := false, false, false
	for _, r := range []*Router{def, short} {
		for i := 0; i < 30; i++ {
			o := c.ZoneNode[(i*13)%len(c.Zones)]
			d := c.ZoneNode[(i*29+3)%len(c.Zones)]
			if i == 0 {
				d = o
			}
			for _, depart := range []gtfs.Seconds{7*3600 + 13, 8 * 3600, 21*3600 + 30*60} {
				j, ok := sameAsReference(t, r, w, o, d, depart)
				sawSelf = sawSelf || o == d
				sawUnreachable = sawUnreachable || !ok
				sawRide = sawRide || j.Boardings > 0
			}
		}
	}
	if !sawSelf || !sawUnreachable || !sawRide {
		t.Fatalf("cases not covered: self %v, unreachable %v, transit %v", sawSelf, sawUnreachable, sawRide)
	}
	s := buildScenario(t)
	for _, opts := range []Options{{}, {MaxJourney: 900}, {MaxWait: 120, BoardSlack: 90}} {
		r, err := New(s.road, s.index, s.stopNode, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range s.nodes {
			for _, d := range s.nodes {
				for _, depart := range []gtfs.Seconds{6*3600 + 50*60, 7*3600 + 8*60 + 30, 8*3600 + 59*60, 22 * 3600} {
					sameAsReference(t, r, s, o, d, depart)
				}
			}
		}
	}
}

func TestRouteDetailedWalkOnly(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	j, legs, ok, err := r.RouteDetailed(s.nodes[0], s.nodes[1], 8*3600)
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	if len(legs) != 1 || legs[0].Mode != LegWalk {
		t.Fatalf("legs = %+v, want one merged walk", legs)
	}
	if legs[0].From != s.nodes[0] || legs[0].To != s.nodes[1] {
		t.Errorf("walk endpoints %d->%d", legs[0].From, legs[0].To)
	}
	if legs[0].Arrive != j.Arrive {
		t.Errorf("leg arrive %v != journey arrive %v", legs[0].Arrive, j.Arrive)
	}
}

func TestRouteDetailedTransitItinerary(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	depart := gtfs.Seconds(7*3600 + 8*60 + 30)
	j, legs, ok, err := r.RouteDetailed(s.nodes[0], s.nodes[3], depart)
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	// walk n0->n1, ride SA->SB, walk n2->n3.
	if len(legs) != 3 {
		t.Fatalf("got %d legs: %+v", len(legs), legs)
	}
	if legs[0].Mode != LegWalk || legs[1].Mode != LegRide || legs[2].Mode != LegWalk {
		t.Fatalf("leg modes wrong: %v %v %v", legs[0].Mode, legs[1].Mode, legs[2].Mode)
	}
	ride := legs[1]
	if ride.BoardStop != "SA" || ride.AlightStop != "SB" || ride.Route != "R" {
		t.Errorf("ride leg = %+v", ride)
	}
	if ride.Depart != 7*3600+20*60 {
		t.Errorf("ride departs %v, want 07:20", ride.Depart)
	}
	// Legs are contiguous in space and monotone in time.
	for i := 1; i < len(legs); i++ {
		if legs[i].From != legs[i-1].To {
			t.Errorf("leg %d not contiguous", i)
		}
		if legs[i].Arrive < legs[i-1].Arrive {
			t.Errorf("leg %d goes back in time", i)
		}
	}
	if legs[len(legs)-1].Arrive != j.Arrive {
		t.Errorf("final leg arrive %v != journey %v", legs[len(legs)-1].Arrive, j.Arrive)
	}
	// Detailed journey matches the plain query.
	plain, ok2, err := r.Route(s.nodes[0], s.nodes[3], depart)
	if err != nil || !ok2 {
		t.Fatal("plain route failed")
	}
	if plain.Arrive != j.Arrive || plain.Boardings != j.Boardings {
		t.Errorf("detailed journey %+v differs from plain %+v", j, plain)
	}
}

func TestRouteDetailedUnreachable(t *testing.T) {
	s := buildScenario(t)
	r, err := New(s.road, s.index, s.stopNode, Options{MaxJourney: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, legs, ok, err := r.RouteDetailed(s.nodes[0], s.nodes[3], 8*3600)
	if err != nil {
		t.Fatal(err)
	}
	if ok || legs != nil {
		t.Error("unreachable should report !ok with no legs")
	}
}

func TestRouteDetailedValidation(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	if _, _, _, err := r.RouteDetailed(-1, s.nodes[0], 0); err == nil {
		t.Error("invalid origin should fail")
	}
	if _, _, _, err := r.RouteDetailed(s.nodes[0], 99, 0); err == nil {
		t.Error("invalid dest should fail")
	}
}

func TestRouteDetailedSelf(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	j, legs, ok, err := r.RouteDetailed(s.nodes[2], s.nodes[2], 8*3600)
	if err != nil || !ok {
		t.Fatal("self route failed")
	}
	if len(legs) != 0 || j.Duration() != 0 {
		t.Errorf("self route: %d legs, duration %v", len(legs), j.Duration())
	}
}

func TestRouteDetailedCityConsistency(t *testing.T) {
	c, _, r := cityWorld(t)
	depart := gtfs.Seconds(8 * 3600)
	for i := 0; i < 30; i++ {
		o := c.ZoneNode[(i*13)%len(c.Zones)]
		d := c.ZoneNode[(i*29+3)%len(c.Zones)]
		jd, legs, okD, err := r.RouteDetailed(o, d, depart)
		if err != nil {
			t.Fatal(err)
		}
		jp, okP, err := r.Route(o, d, depart)
		if err != nil {
			t.Fatal(err)
		}
		if okD != okP {
			t.Fatalf("reachability disagrees for pair %d", i)
		}
		if !okD {
			continue
		}
		if jd != jp {
			t.Errorf("pair %d: detailed journey %+v != plain %+v", i, jd, jp)
		}
		rides := 0
		for _, leg := range legs {
			if leg.Mode == LegRide {
				rides++
			}
		}
		if rides != jd.Boardings {
			t.Errorf("pair %d: %d ride legs but %d boardings", i, rides, jd.Boardings)
		}
	}
}
