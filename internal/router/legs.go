package router

import (
	"fmt"

	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// LegMode distinguishes walking from riding.
type LegMode int

// Leg modes.
const (
	LegWalk LegMode = iota
	LegRide
)

// String implements fmt.Stringer.
func (m LegMode) String() string {
	if m == LegWalk {
		return "walk"
	}
	return "ride"
}

// Leg is one segment of a reconstructed itinerary. Walk legs cover one or
// more road edges (merged); ride legs cover one vehicle boarding from
// BoardStop to AlightStop.
type Leg struct {
	Mode LegMode
	// From and To are road nodes.
	From, To graph.NodeID
	// Depart and Arrive bound the leg in time. For ride legs Depart is the
	// vehicle's departure (waiting time precedes it).
	Depart, Arrive gtfs.Seconds
	// Route, Trip, BoardStop, and AlightStop are set for ride legs.
	Route      gtfs.RouteID
	Trip       gtfs.TripID
	BoardStop  gtfs.StopID
	AlightStop gtfs.StopID
}

// incomingLeg records how a node's current label was reached, enabling
// itinerary reconstruction. A ride leg names its trip by timetable index
// and its boarding and alighting stops by position within the trip;
// reconstruct turns them back into IDs.
type incomingLeg struct {
	parent        graph.NodeID
	mode          LegMode
	depart        gtfs.Seconds
	trip          int32
	board, alight int32
}

// RouteDetailed answers a single query like Route but also reconstructs
// the itinerary's legs. Consecutive walking edges are merged into one walk
// leg. It is the search ProfileTo runs, with dest as the one target and
// predecessor recording on, so it is an SPQ like any other: counted in the
// router metrics and subject to fault injection.
func (r *Router) RouteDetailed(origin, dest graph.NodeID, depart gtfs.Seconds) (Journey, []Leg, bool, error) {
	if dest < 0 || int(dest) >= r.numNodes() {
		return Journey{}, nil, false, fmt.Errorf("router: invalid destination node %d", dest)
	}
	p, err := r.search(origin, depart, []graph.NodeID{dest}, true, true)
	if err != nil {
		return Journey{}, nil, false, err
	}
	defer p.Release()
	j, ok := p.Journey(dest)
	if !ok {
		return Journey{}, nil, false, nil
	}
	return j, reconstruct(r.trips, p.arena.incoming, p.labels, origin, dest), true, nil
}

// reconstruct walks the parent chain from dest to origin, emitting legs in
// forward order with consecutive walks merged. The chain is final once
// dest is settled: a node's parent was settled before the node was relaxed
// out of it, and a settled label — with the leg recorded beside it — never
// changes again. trips are the router's trips, numbered as in its
// timetable.
func reconstruct(trips []gtfs.Trip, incoming []incomingLeg, labels []label, origin, dest graph.NodeID) []Leg {
	var rev []Leg
	at := dest
	for at != origin {
		in := incoming[at]
		leg := Leg{
			Mode: in.mode, From: in.parent, To: at,
			Depart: in.depart, Arrive: labels[at].arrive,
		}
		if in.mode == LegRide {
			t := &trips[in.trip]
			leg.Route, leg.Trip = t.RouteID, t.ID
			leg.BoardStop, leg.AlightStop = t.StopTimes[in.board].StopID, t.StopTimes[in.alight].StopID
		}
		rev = append(rev, leg)
		at = in.parent
	}
	// Reverse and merge consecutive walks.
	var legs []Leg
	for i := len(rev) - 1; i >= 0; i-- {
		leg := rev[i]
		if leg.Mode == LegWalk && len(legs) > 0 && legs[len(legs)-1].Mode == LegWalk {
			prev := &legs[len(legs)-1]
			prev.To = leg.To
			prev.Arrive = leg.Arrive
			continue
		}
		legs = append(legs, leg)
	}
	return legs
}
