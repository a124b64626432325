// Package hoptree implements the paper's transit-hop trees (Section IV-A),
// the pre-computed structures that make online feature generation cheap.
//
// A transit hop is a short foot journey plus a single transit ride. The
// outbound tree OB_z for zone z (within a time interval v) has z at its root
// and one leaf per zone reachable after one outbound hop; the inbound tree
// IB_z mirrors it for journeys terminating at z. Each leaf carries
// connectivity data: how many vehicle visits connect the pair during v, how
// many distinct routes, the aggregated in-hop journey times, and the
// shortest access walk. Retrieving OB_origin and IB_destination instantly
// exposes the potential connectivity between two zones without any
// shortest-path query.
//
// Layout invariants: every per-stop structure is addressed by the stop's
// index in feed.Stops, every per-zone structure by the zone index, and a
// tree's leaves are a flat slice sorted by leaf zone. There are no maps on
// the build or query paths; lookups are binary searches or direct indexing.
package hoptree

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/gtfs"
	"accessquery/internal/isochrone"
	"accessquery/internal/par"
	"accessquery/internal/spatial"
)

// Direction distinguishes outbound from inbound trees.
type Direction int

// Tree directions.
const (
	Outbound Direction = iota
	Inbound
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Outbound {
		return "outbound"
	}
	return "inbound"
}

// Leaf is one reachable zone with its connectivity data. It is a fixed-size
// value (32 bytes, 8-byte aligned) so a tree's leaves pack into one
// contiguous allocation and can be aliased directly out of a mapped
// snapshot section.
type Leaf struct {
	// Zone is the reachable zone's index.
	Zone int32
	// Visits counts vehicle visits connecting the root to this zone during
	// the interval (the leaf counter from the paper).
	Visits int32
	// Routes is the number of distinct route IDs serving the connection.
	Routes int32
	// JourneyCount is the number of observed hop journeys aggregated into
	// JourneySum.
	JourneyCount int32
	// JourneySum is the sum of observed hop journey times (walk +
	// in-vehicle) in seconds, accumulated in recording order.
	JourneySum float64
	// BestWalk is the cheapest access (outbound) or egress (inbound) walk in
	// seconds.
	BestWalk float64
}

// AvgJourney returns the mean observed hop journey time in seconds, or 0
// when no journeys were recorded.
func (l *Leaf) AvgJourney() float64 {
	if l.JourneyCount == 0 {
		return 0
	}
	return l.JourneySum / float64(l.JourneyCount)
}

// RouteCount returns the number of distinct routes serving the connection.
func (l *Leaf) RouteCount() int { return int(l.Routes) }

// Tree is a transit-hop tree: a root zone and its one-hop-reachable leaves.
type Tree struct {
	Zone      int
	Direction Direction
	Interval  gtfs.Interval
	// Leaves holds the reachable zones' connectivity data, sorted by leaf
	// zone ascending. The root zone itself never appears as a leaf. The
	// slice is immutable once built: derived engines share tree pointers.
	Leaves []Leaf
}

// Size returns the number of leaves.
func (t *Tree) Size() int { return len(t.Leaves) }

// visit is one vehicle call at a stop.
type visit struct {
	trip      int // index into dayTrips
	stopIndex int
	arrival   gtfs.Seconds
	departure gtfs.Seconds
}

// Builder pre-computes the shared lookup structures once and then emits
// trees per zone. All per-stop state is addressed by the stop's index in
// feed.Stops; the only maps live inside NewBuilder and are dropped before
// it returns.
type Builder struct {
	feed     *gtfs.Feed
	interval gtfs.Interval
	isos     *isochrone.Set
	zonePts  []geo.Point
	// stopZone maps stop index -> nearest zone index (-1 when no zone).
	stopZone []int32
	stopTree *spatial.KDTree
	// visits maps stop index -> that stop's vehicle calls, sorted by
	// departure.
	visits [][]visit
	// dayTrips are the interval weekday's operating trips (frequency runs
	// materialized); visit.trip indexes into it.
	dayTrips []gtfs.Trip
	// tripZones mirrors dayTrips: tripZones[ti][si] is the zone of trip
	// ti's si-th stop time, pre-resolved so ride loops never touch a map.
	tripZones [][]int32
	walkLimit float64
	// scratch pools per-build dense accumulators; BuildForestParallel runs
	// builds concurrently, each on its own scratch.
	scratch sync.Pool
}

// NewBuilder prepares a builder for the given city layers.
//
//   - feed: the timetable
//   - day-filtered visits are derived from the interval's weekday
//   - zonePts: zone centroids, indexed by zone
//   - isos: per-zone walking isochrones (same indexing)
func NewBuilder(feed *gtfs.Feed, interval gtfs.Interval, zonePts []geo.Point, isos *isochrone.Set) (*Builder, error) {
	if feed == nil || isos == nil {
		return nil, fmt.Errorf("hoptree: nil feed or isochrone set")
	}
	if len(zonePts) != len(isos.Isochrones) {
		return nil, fmt.Errorf("hoptree: %d zones but %d isochrones", len(zonePts), len(isos.Isochrones))
	}
	b := &Builder{
		feed:      feed,
		interval:  interval,
		isos:      isos,
		zonePts:   zonePts,
		stopZone:  make([]int32, len(feed.Stops)),
		visits:    make([][]visit, len(feed.Stops)),
		walkLimit: isos.Tau,
	}
	nz := len(zonePts)
	b.scratch.New = func() interface{} { return newBuildScratch(nz) }
	// Assign each stop to its nearest zone.
	items := make([]spatial.Item, len(zonePts))
	for i, p := range zonePts {
		items[i] = spatial.Item{ID: i, Point: p}
	}
	zoneTree := spatial.NewKDTree(items)
	stopIdx := make(map[gtfs.StopID]int, len(feed.Stops))
	stopItems := make([]spatial.Item, len(feed.Stops))
	for i, s := range feed.Stops {
		stopIdx[s.ID] = i
		stopItems[i] = spatial.Item{ID: i, Point: s.Point}
		if nb, ok := zoneTree.Nearest(s.Point); ok {
			b.stopZone[i] = int32(nb.Item.ID)
		} else {
			b.stopZone[i] = -1
		}
	}
	b.stopTree = spatial.NewKDTree(stopItems)
	// Index vehicle visits per stop for the interval's weekday.
	b.indexVisits(interval.Day, stopIdx)
	return b, nil
}

func (b *Builder) indexVisits(day time.Weekday, stopIdx map[gtfs.StopID]int) {
	b.dayTrips = b.feed.ServiceTrips(day)
	b.tripZones = make([][]int32, len(b.dayTrips))
	for ti := range b.dayTrips {
		t := &b.dayTrips[ti]
		zones := make([]int32, len(t.StopTimes))
		for si, st := range t.StopTimes {
			idx, ok := stopIdx[st.StopID]
			if !ok {
				zones[si] = -1
				continue
			}
			zones[si] = b.stopZone[idx]
			b.visits[idx] = append(b.visits[idx], visit{
				trip: ti, stopIndex: si, arrival: st.Arrival, departure: st.Departure,
			})
		}
		b.tripZones[ti] = zones
	}
	for i := range b.visits {
		v := b.visits[i]
		sort.Slice(v, func(i, j int) bool { return v[i].departure < v[j].departure })
	}
}

// walkableStops appends the stops inside zone's walkshed with their walking
// times to dst, using crow-flight distance within the isochrone hull as the
// walking estimate (the hull is the W_i shapefile from the paper;
// F_stops ∩ W_i).
func (b *Builder) walkableStops(dst []stopWalk, zone int) []stopWalk {
	iso := b.isos.For(zone)
	if iso == nil {
		return dst
	}
	// Candidate stops: within the crow-flight walking radius, then filtered
	// by hull membership.
	radius := iso.Tau / geo.WalkSecondsPerMeter
	for _, nb := range b.stopTree.WithinRadius(iso.Origin, radius) {
		stop := b.feed.Stops[nb.Item.ID]
		if !iso.Contains(stop.Point) {
			continue
		}
		walk := nb.Meters * geo.WalkSecondsPerMeter * geo.StreetDetour
		if walk > b.walkLimit*geo.StreetDetour {
			continue
		}
		dst = append(dst, stopWalk{stop: nb.Item.ID, walkSeconds: walk})
	}
	return dst
}

type stopWalk struct {
	stop        int // index into feed.Stops
	walkSeconds float64
}

// buildScratch holds one build's dense per-zone accumulators. Zones are
// reset lazily via the touched list so a build costs O(touched), not
// O(zones).
type buildScratch struct {
	visits  []int32
	jcount  []int32
	jsum    []float64
	bwalk   []float64
	routes  [][]gtfs.RouteID
	touched []int32
	stops   []stopWalk
}

func newBuildScratch(nz int) *buildScratch {
	return &buildScratch{
		visits: make([]int32, nz),
		jcount: make([]int32, nz),
		jsum:   make([]float64, nz),
		bwalk:  make([]float64, nz),
		routes: make([][]gtfs.RouteID, nz),
	}
}

func (s *buildScratch) reset() {
	for _, z := range s.touched {
		s.visits[z] = 0
		s.jcount[z] = 0
		s.jsum[z] = 0
		s.bwalk[z] = 0
		s.routes[z] = s.routes[z][:0]
	}
	s.touched = s.touched[:0]
	s.stops = s.stops[:0]
}

// record accumulates one observed hop into the scratch. Accumulation order
// matches the recording order, so JourneySum is bit-identical to summing
// the old per-leaf journey list.
func (s *buildScratch) record(zone, root int, route gtfs.RouteID, journeySeconds, walkSeconds float64) {
	if zone < 0 || zone == root {
		return
	}
	if s.visits[zone] == 0 {
		s.touched = append(s.touched, int32(zone))
		s.bwalk[zone] = walkSeconds
	} else if walkSeconds < s.bwalk[zone] {
		s.bwalk[zone] = walkSeconds
	}
	s.visits[zone]++
	s.jcount[zone]++
	s.jsum[zone] += journeySeconds
	known := false
	for _, r := range s.routes[zone] {
		if r == route {
			known = true
			break
		}
	}
	if !known {
		s.routes[zone] = append(s.routes[zone], route)
	}
}

// leaves finalizes the scratch into a sorted leaf slice. Scanning zones in
// index order yields the sort without comparisons and is deterministic
// regardless of recording order.
func (s *buildScratch) leaves() []Leaf {
	if len(s.touched) == 0 {
		return nil
	}
	out := make([]Leaf, 0, len(s.touched))
	for z := range s.visits {
		if s.visits[z] == 0 {
			continue
		}
		out = append(out, Leaf{
			Zone:         int32(z),
			Visits:       s.visits[z],
			Routes:       int32(len(s.routes[z])),
			JourneyCount: s.jcount[z],
			JourneySum:   s.jsum[z],
			BestWalk:     s.bwalk[z],
		})
	}
	return out
}

// Outbound builds OB_zone for the builder's interval: every zone reachable
// with a walk to a stop plus a single ride departing within the interval.
func (b *Builder) Outbound(zone int) (*Tree, error) {
	return b.build(zone, Outbound)
}

// Inbound builds IB_zone: every zone from which zone can be reached with a
// single ride arriving within the interval plus a walk.
func (b *Builder) Inbound(zone int) (*Tree, error) {
	return b.build(zone, Inbound)
}

func (b *Builder) build(zone int, dir Direction) (*Tree, error) {
	if zone < 0 || zone >= len(b.zonePts) {
		return nil, fmt.Errorf("hoptree: zone %d out of range", zone)
	}
	s := b.scratch.Get().(*buildScratch)
	s.reset()
	defer b.scratch.Put(s)
	s.stops = b.walkableStops(s.stops, zone)
	for _, sw := range s.stops {
		visits := b.visits[sw.stop]
		if dir == Outbound {
			b.rideForward(s, zone, sw, visits)
		} else {
			b.rideBackward(s, zone, sw, visits)
		}
	}
	return &Tree{
		Zone:      zone,
		Direction: dir,
		Interval:  b.interval,
		Leaves:    s.leaves(),
	}, nil
}

// rideForward boards every departure from the boarding stop inside the
// interval and records each downstream stop's zone as a leaf.
func (b *Builder) rideForward(s *buildScratch, root int, sw stopWalk, visits []visit) {
	v := b.interval
	lo := sort.Search(len(visits), func(i int) bool { return visits[i].departure >= v.Start })
	for i := lo; i < len(visits) && visits[i].departure < v.End; i++ {
		vis := visits[i]
		trip := &b.dayTrips[vis.trip]
		zones := b.tripZones[vis.trip]
		for si := vis.stopIndex + 1; si < len(trip.StopTimes); si++ {
			journey := sw.walkSeconds + float64(trip.StopTimes[si].Arrival-vis.departure)
			s.record(int(zones[si]), root, trip.RouteID, journey, sw.walkSeconds)
		}
	}
}

// rideBackward considers every arrival at the egress stop inside the
// interval and records each upstream stop's zone as a leaf.
func (b *Builder) rideBackward(s *buildScratch, root int, sw stopWalk, visits []visit) {
	v := b.interval
	for _, vis := range visits {
		if vis.arrival < v.Start || vis.arrival >= v.End {
			continue
		}
		trip := &b.dayTrips[vis.trip]
		zones := b.tripZones[vis.trip]
		for si := 0; si < vis.stopIndex; si++ {
			journey := float64(vis.arrival-trip.StopTimes[si].Departure) + sw.walkSeconds
			s.record(int(zones[si]), root, trip.RouteID, journey, sw.walkSeconds)
		}
	}
}

// Forest holds the trees for every zone in both directions — the
// pre-computed structure the online phase retrieves from.
type Forest struct {
	Interval gtfs.Interval
	Out      []*Tree
	In       []*Tree
}

// BuildForestParallel generates outbound and inbound trees for every zone,
// fanning per-zone tree generation across a worker pool. The builder's
// lookup structures (visit index, stop KD-tree, isochrones) are read-only
// after NewBuilder, build scratch is pooled per worker, and each zone's
// trees are written only to that zone's slots, so the forest is identical
// to the serial build for any workers value; workers <= 1 runs serially.
func BuildForestParallel(b *Builder, workers int) (*Forest, error) {
	n := len(b.zonePts)
	f := &Forest{
		Interval: b.interval,
		Out:      make([]*Tree, n),
		In:       make([]*Tree, n),
	}
	err := par.For(workers, n, func(z int) error {
		out, err := b.Outbound(z)
		if err != nil {
			return err
		}
		in, err := b.Inbound(z)
		if err != nil {
			return err
		}
		f.Out[z] = out
		f.In[z] = in
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Outbound returns OB_zone, or nil when zone is out of range.
func (f *Forest) Outbound(zone int) *Tree {
	if zone < 0 || zone >= len(f.Out) {
		return nil
	}
	return f.Out[zone]
}

// Inbound returns IB_zone, or nil when zone is out of range.
func (f *Forest) Inbound(zone int) *Tree {
	if zone < 0 || zone >= len(f.In) {
		return nil
	}
	return f.In[zone]
}

// Zones returns the number of zones covered.
func (f *Forest) Zones() int { return len(f.Out) }

// ReachScratch is caller-owned scratch for ReachableInto so repeated reach
// queries allocate nothing. The zero value is ready to use.
type ReachScratch struct {
	frontier []int32
	next     []int32
}

// ReachableInto chains outbound trees to report every zone reachable from
// start in at most h hops. Chaining trees is how the paper extends one-hop
// information to h hops.
//
// dst must have length >= Zones(); it is filled with the minimum hop count
// per zone, -1 for unreachable zones, and 0 for start itself. The return
// value is the number of reachable zones (start included), or 0 when start
// is out of range (dst is then untouched). s may be nil, at the cost of
// per-call allocations.
func (f *Forest) ReachableInto(dst []int32, start, h int, s *ReachScratch) int {
	if start < 0 || start >= len(f.Out) {
		return 0
	}
	if s == nil {
		s = &ReachScratch{}
	}
	nz := len(f.Out)
	dst = dst[:nz]
	for i := range dst {
		dst[i] = -1
	}
	dst[start] = 0
	count := 1
	frontier := append(s.frontier[:0], int32(start))
	next := s.next[:0]
	for step := int32(1); step <= int32(h); step++ {
		next = next[:0]
		for _, z := range frontier {
			t := f.Out[z]
			if t == nil {
				continue
			}
			for i := range t.Leaves {
				leaf := t.Leaves[i].Zone
				if dst[leaf] < 0 {
					dst[leaf] = step
					count++
					next = append(next, leaf)
				}
			}
		}
		frontier, next = next, frontier
		if len(frontier) == 0 {
			break
		}
	}
	s.frontier, s.next = frontier, next
	return count
}
