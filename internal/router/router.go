// Package router implements the multimodal (walk + transit) shortest-path
// oracle the paper delegates to OpenTripPlanner. Given an (origin,
// destination, start time) query it returns the earliest-arrival journey
// through the road network and timetable, decomposed into the cost
// components the UK Department for Transport generalized-cost model needs:
// access walk, waiting, in-vehicle time, egress walk, transfers, and fare.
//
// The search is a time-dependent Dijkstra over road nodes. Walking edges are
// relaxed with their static costs, read from a CSR compiled once per router;
// when a node carrying transit stops is settled, the next few departures
// from those stops are boarded and the trip is ridden forward, relaxing the
// downstream stops no earlier boarding of the same trip in this search has
// relaxed already. A single one-to-many Profile call therefore prices a zone
// against every POI at once, which is how the TODAM labeling loop amortizes
// its SPQ workload.
//
// The search is label-setting: nodes are settled in non-decreasing arrival
// order, every relaxation out of a settled node arrives no earlier than that
// node was settled, and a label is replaced only by a strictly earlier
// arrival. A settled label is therefore final, which is what lets ProfileTo
// stop as soon as the last of its targets is settled and still return, for
// every target, the journey the exhaustive ProfileFrom returns. RouteDetailed
// is the same search with predecessor recording switched on.
//
// The same three facts make riding a trip once per search exact. A trip's
// arrival at each stop is fixed and non-decreasing along the trip, and the
// journey deadline is fixed, so a second boarding of a trip at a later stop
// would relax the stops the first ride relaxed at the same arrival times,
// which the strict improve rule rejects. The search remembers, per trip, the
// lowest stop position boarded so far; it skips a boarding at or past it and
// rides a boarding before it only up to it.
package router

import (
	"fmt"
	"sync"

	"accessquery/internal/fault"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// Options tune the search. The zero value is replaced by defaults.
type Options struct {
	// BoardSlack is the minimum seconds between arriving at a stop and
	// boarding a vehicle there.
	BoardSlack gtfs.Seconds
	// MaxWait is the longest the search will wait at a stop for a departure.
	MaxWait gtfs.Seconds
	// MaxDeparturesPerStop bounds how many upcoming departures are tried per
	// settled stop.
	MaxDeparturesPerStop int
	// MaxJourney bounds total journey duration; longer journeys are treated
	// as unreachable.
	MaxJourney gtfs.Seconds
}

// DefaultOptions returns the options used by the experiments.
func DefaultOptions() Options {
	return Options{
		BoardSlack:           30,
		MaxWait:              2700,
		MaxDeparturesPerStop: 3,
		MaxJourney:           3 * 3600,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.BoardSlack <= 0 {
		o.BoardSlack = d.BoardSlack
	}
	if o.MaxWait <= 0 {
		o.MaxWait = d.MaxWait
	}
	if o.MaxDeparturesPerStop <= 0 {
		o.MaxDeparturesPerStop = d.MaxDeparturesPerStop
	}
	if o.MaxJourney <= 0 {
		o.MaxJourney = d.MaxJourney
	}
	return o
}

// Router answers multimodal earliest-arrival queries.
type Router struct {
	// walkStart[n] and walkStart[n+1] bound road node n's walking edges in
	// walkTo and walkSec (see compileWalks).
	walkStart []int32
	walkTo    []graph.NodeID
	walkSec   []gtfs.Seconds
	tt        *timetable
	// trips are the schedule's trips, numbered as in the timetable; only
	// reconstruct reads them, to turn trip indices back into IDs.
	trips []gtfs.Trip
	opts  Options
	// arenaPool recycles per-search label arrays and frontier heaps between
	// ProfileFrom calls; see Profile.Release.
	arenaPool sync.Pool
}

// profileArena is the per-search allocation unit: the full label array
// (one label per road node), the frontier heap, the per-trip ride marks,
// and the predecessor array an itinerary search records into. With it
// pooled, the Profile handle is the only allocation of a steady-state
// search.
type profileArena struct {
	labels []label
	q      pq
	// ridden[t] is one more than the lowest stop position trip t was
	// boarded at in this search, 0 while it has not been, so a plain clear
	// resets it.
	ridden   []int32
	incoming []incomingLeg
}

// New builds a router over a road graph, a schedule index for the service
// day, and the welding of stops onto road nodes, compiling them into the
// router's own walking-edge list and timetable; the router keeps neither
// the graph nor the index. A stop welded to graph.InvalidNode is unwelded;
// a weld to any other node outside the road graph is an error, and so is a
// trip ID the index carries twice.
func New(road *graph.Graph, index *gtfs.Index, stopNode map[gtfs.StopID]graph.NodeID, opts Options) (*Router, error) {
	if road == nil || index == nil {
		return nil, fmt.Errorf("router: nil road graph or schedule index")
	}
	tt, err := compileTimetable(road.NumNodes(), index, stopNode)
	if err != nil {
		return nil, err
	}
	r := &Router{tt: tt, trips: index.Trips(), opts: opts.withDefaults()}
	r.walkStart, r.walkTo, r.walkSec = compileWalks(road)
	r.arenaPool.New = func() interface{} { return new(profileArena) }
	return r, nil
}

// Journey is a priced multimodal journey. All durations are in seconds.
type Journey struct {
	Depart gtfs.Seconds
	Arrive gtfs.Seconds
	// AccessWalk is walking before the first boarding (the whole journey for
	// walk-only trips).
	AccessWalk float64
	// EgressWalk is walking after the final alight.
	EgressWalk float64
	// TransferWalk is walking between alights and subsequent boardings.
	TransferWalk float64
	// Wait is total time spent waiting at stops.
	Wait float64
	// InVehicle is total riding time.
	InVehicle float64
	// Boardings counts vehicles boarded; transfers are Boardings-1.
	Boardings int
	// Fare is the summed flat fares of boarded routes, in pence.
	Fare float64
}

// Duration returns total journey time in seconds (the paper's JT access
// cost).
func (j Journey) Duration() float64 { return float64(j.Arrive - j.Depart) }

// WalkOnly reports whether the journey used no transit.
func (j Journey) WalkOnly() bool { return j.Boardings == 0 }

// label is the running cost decomposition carried through the search.
type label struct {
	arrive       gtfs.Seconds
	accessWalk   float32
	egressWalk   float32 // walk since last alight (reclassified on arrival)
	transferWalk float32
	wait         float32
	inVehicle    float32
	boardings    int16
	fare         float32
	settled      bool
	reached      bool
	// target marks a node a bounded search was asked for. The mark belongs
	// to the node, not to the path that reached it: improve keeps it when
	// it replaces the label.
	target bool
}

// journeyFrom converts a final label into a Journey. Walking after the last
// alight is egress; for walk-only journeys all walking is access walk.
func journeyFrom(depart gtfs.Seconds, l label) Journey {
	j := Journey{
		Depart:       depart,
		Arrive:       l.arrive,
		AccessWalk:   float64(l.accessWalk),
		EgressWalk:   float64(l.egressWalk),
		TransferWalk: float64(l.transferWalk),
		Wait:         float64(l.wait),
		InVehicle:    float64(l.inVehicle),
		Boardings:    int(l.boardings),
		Fare:         float64(l.fare),
	}
	return j
}

// Profile holds the earliest-arrival labels of one search from an origin
// road node at a start time, indexed by node ID; entries with
// Reached()==false were not reached within MaxJourney. A ProfileFrom
// profile is final at every node. A ProfileTo profile is final at its
// targets only: the search stopped once they were settled, so other nodes
// may hold a tentative label or none.
type Profile struct {
	depart gtfs.Seconds
	labels []label
	// arena/router back the labels; Release returns them to the router's
	// pool.
	arena  *profileArena
	router *Router
}

// Release hands the profile's label storage back to the router's arena
// pool. After Release the profile reports every node as unreached; calling
// it twice is a no-op. Callers that drop a profile without releasing it
// merely fall back to garbage collection.
func (p *Profile) Release() {
	if p.router == nil || p.arena == nil {
		p.labels, p.arena, p.router = nil, nil, nil
		return
	}
	r := p.router
	ar := p.arena
	p.labels, p.arena, p.router = nil, nil, nil
	r.arenaPool.Put(ar)
}

// Reached reports whether node was reached. A node outside the road graph,
// graph.InvalidNode included, never is.
func (p *Profile) Reached(node graph.NodeID) bool {
	return node >= 0 && int(node) < len(p.labels) && p.labels[node].reached
}

// Journey returns the journey to node. ok is false when the node was not
// reached within MaxJourney.
func (p *Profile) Journey(node graph.NodeID) (Journey, bool) {
	if !p.Reached(node) {
		return Journey{}, false
	}
	return journeyFrom(p.depart, p.labels[node]), true
}

// pqItem orders the frontier by arrival time.
type pqItem struct {
	node   graph.NodeID
	arrive gtfs.Seconds
}

// pq is the frontier: a binary min-heap on arrive. push and pop are
// container/heap's Push and Pop written out over the concrete element
// type — the same comparisons in the same order, so equal arrival times
// pop in the same sequence, which is how the search breaks ties — without
// boxing every item through interface{}. The heap test checks them
// against container/heap.
type pq []pqItem

// push adds it and sifts it up.
func (q *pq) push(it pqItem) {
	h := append(*q, it)
	*q = h
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].arrive < h[i].arrive) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the earliest item: the root is swapped to the
// end, the new root sifted down over the remaining n items.
func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].arrive < h[j].arrive {
			j = j2
		}
		if !(h[j].arrive < h[i].arrive) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// ProfileFrom runs the one-to-many search from origin at time depart until
// the frontier is exhausted.
func (r *Router) ProfileFrom(origin graph.NodeID, depart gtfs.Seconds) (*Profile, error) {
	return r.search(origin, depart, nil, false, false)
}

// ProfileTo runs the same search but stops as soon as every node in targets
// is settled. For each target, Journey and Reached equal ProfileFrom's (see
// the package comment); a target that cannot be reached lets the search run
// to exhaustion, exactly as ProfileFrom does. Duplicate targets count once;
// with no targets nothing is searched.
func (r *Router) ProfileTo(origin graph.NodeID, depart gtfs.Seconds, targets []graph.NodeID) (*Profile, error) {
	return r.search(origin, depart, targets, true, false)
}

// search is the one label-setting loop behind ProfileFrom, ProfileTo, Route
// and RouteDetailed. bounded says whether targets limits it. record says
// whether it notes, per node, the leg its current label arrived by, in the
// arena's incoming array for RouteDetailed. A record is written only beside
// an improvement, so recording changes nothing the search relaxes, settles
// or counts.
func (r *Router) search(origin graph.NodeID, depart gtfs.Seconds, targets []graph.NodeID, bounded, record bool) (*Profile, error) {
	n := r.numNodes()
	if origin < 0 || int(origin) >= n {
		return nil, fmt.Errorf("router: invalid origin node %d", origin)
	}
	for _, t := range targets {
		if t < 0 || int(t) >= n {
			return nil, fmt.Errorf("router: invalid target node %d", t)
		}
	}
	// Chaos-test injection site: one SPQ is the unit of labeling work, so a
	// fault here models a stalled or failed shortest-path backend. No-op
	// (one atomic load) unless an injector is enabled.
	if err := fault.Check(fault.SiteSPQ); err != nil {
		return nil, err
	}
	// Relaxation work is tallied locally and flushed to the process-wide
	// counters once per search.
	var relaxed, improved int64
	defer func() {
		mProfiles.Inc()
		mRelaxations.Add(relaxed)
		mImprovements.Add(improved)
	}()
	ar := r.arenaPool.Get().(*profileArena)
	if cap(ar.labels) >= n {
		ar.labels = ar.labels[:n]
		clear(ar.labels)
	} else {
		ar.labels = make([]label, n)
	}
	labels := ar.labels
	labels[origin] = label{arrive: depart, reached: true}
	if nt := len(r.trips); cap(ar.ridden) >= nt {
		ar.ridden = ar.ridden[:nt]
		clear(ar.ridden)
	} else {
		ar.ridden = make([]int32, nt)
	}
	// incoming stays nil unless recording. It is not cleared: every reached
	// node but the origin was improved, so written, in this search, and
	// reconstruct reads no other entry.
	var incoming []incomingLeg
	if record {
		if cap(ar.incoming) < n {
			ar.incoming = make([]incomingLeg, n)
		}
		ar.incoming = ar.incoming[:n]
		incoming = ar.incoming
	}
	// unsettled counts the distinct target nodes not settled yet.
	unsettled := 0
	for _, t := range targets {
		if !labels[t].target {
			labels[t].target = true
			unsettled++
		}
	}
	ar.q = append(ar.q[:0], pqItem{node: origin, arrive: depart})
	q := ar.q
	deadline := depart + r.opts.MaxJourney
	for len(q) > 0 && !(bounded && unsettled == 0) {
		cur := q.pop()
		l := &labels[cur.node]
		if cur.arrive > l.arrive || l.settled {
			continue
		}
		l.settled = true
		if l.target { // marks exist only in a bounded search
			if unsettled--; unsettled == 0 {
				break // every target's label is final; the rest is not asked for
			}
		}
		curLabel := *l // copy: relaxations below must not read mutated state

		// Walking relaxations. A relaxation that cannot win is counted and
		// dropped before its label is built.
		for e := r.walkStart[cur.node]; e < r.walkStart[cur.node+1]; e++ {
			wsec := r.walkSec[e]
			na := curLabel.arrive + wsec
			if na > deadline {
				continue
			}
			relaxed++
			to := r.walkTo[e]
			if lt := &labels[to]; lt.reached && na >= lt.arrive {
				continue
			}
			nl := curLabel
			nl.arrive = na
			if curLabel.boardings == 0 {
				nl.accessWalk += float32(wsec)
			} else {
				nl.egressWalk += float32(wsec)
			}
			improve(labels, to, nl, &q)
			improved++
			if incoming != nil {
				incoming[to] = incomingLeg{parent: cur.node, mode: LegWalk, depart: curLabel.arrive}
			}
		}

		// Transit relaxations: board upcoming departures at stops welded to
		// this node.
		for _, s := range r.tt.stopsAt(cur.node) {
			r.relaxBoardings(labels, &q, ar.ridden, incoming, cur.node, r.tt.departures(s), curLabel, deadline, &relaxed, &improved)
		}
	}
	ar.q = q[:0]
	return &Profile{depart: depart, labels: labels, arena: ar, router: r}, nil
}

// relaxBoardings boards the next departures from one stop, welded to
// node at, and rides them forward, tallying relaxation attempts and
// improvements into the caller's counters and, when incoming is non-nil,
// recording the ride leg of every label it improves. deps are the stop's
// departures in time order; the earliest boardable one is the first at or
// after arrival plus BoardSlack, and at most MaxDeparturesPerStop from it
// are tried. ridden holds the search's per-trip ride marks: a trip is
// ridden only over the stop positions no earlier boarding of it in this
// search has relaxed (see the package comment).
func (r *Router) relaxBoardings(labels []label, q *pq, ridden []int32, incoming []incomingLeg, at graph.NodeID, deps []departure, from label, deadline gtfs.Seconds, relaxed, improved *int64) {
	tt := r.tt
	earliest := from.arrive + r.opts.BoardSlack
	lo, hi := 0, len(deps)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); deps[m].dep < earliest {
			lo = m + 1
		} else {
			hi = m
		}
	}
	deps = deps[lo:min(len(deps), lo+r.opts.MaxDeparturesPerStop)]
	for _, d := range deps {
		waitHere := d.dep - from.arrive
		if waitHere > r.opts.MaxWait {
			break // departures are ordered; all later ones wait longer
		}
		first, end := tt.tripStart[d.trip], tt.tripStart[d.trip+1]
		if rd := ridden[d.trip]; rd != 0 {
			if d.seq >= rd {
				continue // every stop past d.seq is relaxed already
			}
			end = first + rd // stops past the earlier boarding are too
		}
		ridden[d.trip] = d.seq + 1
		boarded := from
		boarded.wait += float32(waitHere)
		boarded.boardings++
		boarded.fare += tt.fare[d.trip]
		// Walking since the last alight was a transfer walk, not egress.
		boarded.transferWalk += boarded.egressWalk
		boarded.egressWalk = 0
		for k := first + d.seq + 1; k < end; k++ {
			arrive := tt.arrive[k]
			if arrive > deadline {
				break
			}
			node := tt.node[k]
			if node == graph.InvalidNode {
				continue
			}
			*relaxed++
			if lt := &labels[node]; lt.reached && arrive >= lt.arrive {
				continue
			}
			nl := boarded
			nl.arrive = arrive
			nl.inVehicle += float32(arrive - d.dep)
			improve(labels, node, nl, q)
			*improved++
			if incoming != nil {
				incoming[node] = incomingLeg{
					parent: at, mode: LegRide, depart: d.dep,
					trip: d.trip, board: d.seq, alight: k - first,
				}
			}
		}
	}
}

// improve replaces node's label with nl, which the caller has checked
// arrives strictly earlier, and queues the node. nl is a copy of the
// settled label it was relaxed from; the per-node flags are reset to this
// node's.
func improve(labels []label, node graph.NodeID, nl label, q *pq) {
	cur := &labels[node]
	nl.reached, nl.settled, nl.target = true, false, cur.target
	*cur = nl
	q.push(pqItem{node: node, arrive: nl.arrive})
}

// numNodes is the size of the road graph the router was built over.
func (r *Router) numNodes() int { return len(r.walkStart) - 1 }

// Route answers a single (origin, destination, depart) query. ok is false
// when the destination is unreachable within MaxJourney.
func (r *Router) Route(origin, dest graph.NodeID, depart gtfs.Seconds) (Journey, bool, error) {
	if dest < 0 || int(dest) >= r.numNodes() {
		return Journey{}, false, fmt.Errorf("router: invalid destination node %d", dest)
	}
	p, err := r.ProfileTo(origin, depart, []graph.NodeID{dest})
	if err != nil {
		return Journey{}, false, err
	}
	j, ok := p.Journey(dest)
	p.Release()
	return j, ok, nil
}

// CostParams are the weights of the DfT generalized access cost (Eq. 1 of
// the paper): GAC = λ1·TAN + λ2·WT + λ3·IVT + λ4·ET + TP + FARE/VOT, in
// generalized seconds.
type CostParams struct {
	// LambdaAccess (λ1) weights walking time to the network.
	LambdaAccess float64
	// LambdaWait (λ2) weights waiting time.
	LambdaWait float64
	// LambdaInVehicle (λ3) weights in-vehicle time.
	LambdaInVehicle float64
	// LambdaEgress (λ4) weights egress walking time.
	LambdaEgress float64
	// TransferPenalty is added once per transfer (boardings beyond the
	// first), in seconds.
	TransferPenalty float64
	// ValueOfTime converts fare pence to seconds: seconds = pence / VOT,
	// with VOT in pence per second.
	ValueOfTime float64
}

// DefaultCostParams returns weights following DfT TAG unit M3.2 conventions:
// out-of-vehicle time is twice as onerous as in-vehicle time, a transfer
// costs ten minutes, and the value of time is ~GBP 10/hour.
func DefaultCostParams() CostParams {
	return CostParams{
		LambdaAccess:    2.0,
		LambdaWait:      2.0,
		LambdaInVehicle: 1.0,
		LambdaEgress:    2.0,
		TransferPenalty: 600,
		ValueOfTime:     1000.0 / 3600.0, // pence per second
	}
}

// GeneralizedCost prices a journey in generalized seconds under p.
func (p CostParams) GeneralizedCost(j Journey) float64 {
	transfers := j.Boardings - 1
	if transfers < 0 {
		transfers = 0
	}
	cost := p.LambdaAccess*(j.AccessWalk+j.TransferWalk) +
		p.LambdaWait*j.Wait +
		p.LambdaInVehicle*j.InVehicle +
		p.LambdaEgress*j.EgressWalk +
		p.TransferPenalty*float64(transfers)
	if p.ValueOfTime > 0 {
		cost += j.Fare / p.ValueOfTime
	}
	return cost
}

// JourneyTime returns the paper's JT access cost in seconds:
// c(o,d,t) = AT(d) - t.
func JourneyTime(j Journey) float64 { return j.Duration() }
