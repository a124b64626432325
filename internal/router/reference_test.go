package router

import (
	"math/rand"
	"reflect"
	"testing"

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
func referenceArrivals(road *graph.Graph, ix *gtfs.Index, stopNode map[gtfs.StopID]graph.NodeID, opts Options, origin graph.NodeID, depart gtfs.Seconds) (arrive []gtfs.Seconds, relaxations int64) {
	opts = opts.withDefaults()
	n := road.NumNodes()
	stopsAt := make([][]gtfs.StopID, n)
	for sid, nid := range stopNode {
		stopsAt[nid] = append(stopsAt[nid], sid)
	}
	arrive = make([]gtfs.Seconds, n)
	for i := range arrive {
		arrive[i] = unreachedRef
	}
	settled := make([]bool, n)
	relax := func(to graph.NodeID, at gtfs.Seconds) {
		relaxations++
		if arrive[to] == unreachedRef || at < arrive[to] {
			arrive[to] = at
		}
	}
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
			return arrive, relaxations
		}
		settled[u] = true
		now := arrive[u]
		road.Neighbors(u, func(to graph.NodeID, seconds float64) {
			if at := now + gtfs.Seconds(seconds+0.5); at <= deadline {
				relax(to, at)
			}
		})
		for _, sid := range stopsAt[u] {
			for _, dep := range ix.NextDepartures(sid, now+opts.BoardSlack, opts.MaxDeparturesPerStop) {
				if dep.Departure-now > opts.MaxWait {
					break
				}
				trip, ok := ix.Trip(dep.TripID)
				if !ok {
					continue
				}
				for _, st := range trip.StopTimes[dep.StopIndex+1:] {
					if st.Arrival > deadline {
						break
					}
					if node, ok := stopNode[st.StopID]; ok {
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
func checkAgainstReference(t *testing.T, r *Router, origin graph.NodeID, depart gtfs.Seconds) {
	t.Helper()
	want, wantRelaxed := referenceArrivals(r.road, r.index, r.stopNode, r.opts, origin, depart)
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
				checkAgainstReference(t, r, origin, depart)
			}
		}
	}
}

func TestProfileMatchesReferenceCity(t *testing.T) {
	c, r := cityWorld(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		// Zone centroids and arbitrary road nodes alternate as origins.
		origin := c.ZoneNode[rng.Intn(len(c.ZoneNode))]
		if i%2 == 1 {
			origin = graph.NodeID(rng.Intn(c.Road.NumNodes()))
		}
		for _, depart := range []gtfs.Seconds{7*3600 + 13, 8 * 3600, 21*3600 + 30*60} {
			checkAgainstReference(t, r, origin, depart)
		}
	}
}

// TestRouterDeterministicAcrossBuilds pins that nothing about a router
// depends on map iteration order: two routers over the same inputs weld
// stops onto nodes in the same order and do the same search work.
func TestRouterDeterministicAcrossBuilds(t *testing.T) {
	c, a := cityWorld(t)
	b, err := New(a.road, a.index, c.StopNode, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.stopsAtNode, b.stopsAtNode) {
		t.Fatal("stopsAtNode differs between two routers built from the same inputs")
	}
	shared := false
	for _, sids := range a.stopsAtNode {
		shared = shared || len(sids) > 1
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
