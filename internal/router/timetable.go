package router

import (
	"fmt"
	"slices"

	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// timetable is the router's compiled view of one schedule index and one
// welding of stops onto road nodes: every lookup the search makes is a
// slice index, never a string-keyed map probe. Trips are numbered by their
// position in the index's Trips, welded stops densely in StopID order.
// String IDs live only in those trips, which reconstruct reads at the API
// edge. A timetable is immutable once compiled and shared by every search
// of its router.
type timetable struct {
	// tripStart[t] and tripStart[t+1] bound trip t's stop times in node and
	// arrive, one entry per stop time in trip order.
	tripStart []int32
	// node is the road node each stop time's stop is welded to, or
	// graph.InvalidNode for an unwelded stop.
	node   []graph.NodeID
	arrive []gtfs.Seconds
	// fare is each trip's flat boarding fare, 0 for an unknown route.
	fare []float32
	// nodeStart[n] and nodeStart[n+1] bound the dense stops welded to road
	// node n in nodeStops, in StopID order: the order decides which
	// boarding wins an arrival-time tie, so it must not depend on map
	// iteration.
	nodeStart []int32
	nodeStops []int32
	// depStart[s] and depStart[s+1] bound dense stop s's departures in
	// deps, in the index's departure-time order.
	depStart []int32
	deps     []departure
}

// departure is one vehicle leaving a stop: the trip it boards and the
// stop's position within that trip.
type departure struct {
	dep  gtfs.Seconds
	trip int32
	seq  int32
}

// compileTimetable builds the timetable for index ix over a road graph of
// numNodes nodes. A stop welded to graph.InvalidNode, or missing from
// welds, is unwelded: rides pass it without alighting and nothing boards
// there. Any other weld outside the graph is an error, and so is a trip ID
// the index carries twice: a departure boards the trip it was listed for,
// and an itinerary names its trip by ID, so two trips must not share one.
func compileTimetable(numNodes int, ix *gtfs.Index, welds map[gtfs.StopID]graph.NodeID) (*timetable, error) {
	all := make([]gtfs.StopID, 0, len(welds))
	for sid := range welds {
		all = append(all, sid)
	}
	slices.Sort(all)
	stops := all[:0]
	for _, sid := range all {
		switch nid := welds[sid]; {
		case nid == graph.InvalidNode:
		case nid < 0 || int(nid) >= numNodes:
			return nil, fmt.Errorf("router: stop %q welded to node %d, outside the %d-node road graph", sid, nid, numNodes)
		default:
			stops = append(stops, sid)
		}
	}

	trips := ix.Trips()
	stopTimes := 0
	for ti := range trips {
		stopTimes += len(trips[ti].StopTimes)
	}
	seen := make(map[gtfs.TripID]struct{}, len(trips))
	for ti := range trips {
		id := trips[ti].ID
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("router: trip %q appears twice in the schedule index", id)
		}
		seen[id] = struct{}{}
	}
	tt := &timetable{
		tripStart: make([]int32, len(trips)+1),
		node:      make([]graph.NodeID, 0, stopTimes),
		arrive:    make([]gtfs.Seconds, 0, stopTimes),
		fare:      make([]float32, len(trips)),
		nodeStart: make([]int32, numNodes+1),
		nodeStops: make([]int32, len(stops)),
		depStart:  make([]int32, len(stops)+1),
		deps:      make([]departure, 0, stopTimes),
	}
	for ti := range trips {
		t := &trips[ti]
		if route, ok := ix.Feed().Route(t.RouteID); ok {
			tt.fare[ti] = float32(route.FareFlat)
		}
		for _, st := range t.StopTimes {
			nid, ok := welds[st.StopID]
			if !ok {
				nid = graph.InvalidNode
			}
			tt.node = append(tt.node, nid)
			tt.arrive = append(tt.arrive, st.Arrival)
		}
		tt.tripStart[ti+1] = int32(len(tt.node))
	}

	for s, sid := range stops {
		ix.EachDeparture(sid, func(dep gtfs.Seconds, trip, seq int) {
			tt.deps = append(tt.deps, departure{dep: dep, trip: int32(trip), seq: int32(seq)})
		})
		tt.depStart[s+1] = int32(len(tt.deps))
		tt.nodeStart[welds[sid]+1]++
	}
	for n := 0; n < numNodes; n++ {
		tt.nodeStart[n+1] += tt.nodeStart[n]
	}
	next := slices.Clone(tt.nodeStart[:numNodes])
	for s, sid := range stops {
		nid := welds[sid]
		tt.nodeStops[next[nid]] = int32(s)
		next[nid]++
	}
	return tt, nil
}

// stopsAt returns the dense stops welded to node n, in StopID order.
func (tt *timetable) stopsAt(n graph.NodeID) []int32 {
	return tt.nodeStops[tt.nodeStart[n]:tt.nodeStart[n+1]]
}

// departures returns the departures of dense stop s, in time order.
func (tt *timetable) departures(s int32) []departure {
	return tt.deps[tt.depStart[s]:tt.depStart[s+1]]
}

// compileWalks lays the road graph's walking edges out as a CSR: start[n]
// and start[n+1] bound node n's edges in to and sec, in graph.Neighbors
// order, and sec is each edge's seconds rounded once to whole seconds, so
// arrival times and walk components stay in lockstep.
func compileWalks(road *graph.Graph) (start []int32, to []graph.NodeID, sec []gtfs.Seconds) {
	n := road.NumNodes()
	start = make([]int32, n+1)
	to = make([]graph.NodeID, 0, 2*road.NumEdges())
	sec = make([]gtfs.Seconds, 0, 2*road.NumEdges())
	for v := 0; v < n; v++ {
		road.Neighbors(graph.NodeID(v), func(w graph.NodeID, seconds float64) {
			to = append(to, w)
			sec = append(sec, gtfs.Seconds(seconds+0.5))
		})
		start[v+1] = int32(len(to))
	}
	return start, to, sec
}
