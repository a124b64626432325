// Package gtfs models the transit timetable data F from the paper's
// preliminaries using the General Transit Feed Specification vocabulary:
// stops, routes, trips, stop times, and service calendars. It writes a
// feed in the GTFS text format and provides a schedule index for efficient
// "departures from stop S in window W" queries, the primitive behind both
// transit-hop tree generation and the multimodal router.
package gtfs

import (
	"fmt"
	"sort"
	"time"

	"accessquery/internal/geo"
)

// Seconds is a time of day in seconds since midnight of the service day.
// GTFS allows values beyond 24h for trips that run past midnight.
type Seconds int32

// ParseSeconds parses a GTFS "HH:MM:SS" time. Hours may exceed 23.
func ParseSeconds(s string) (Seconds, error) {
	var h, m, sec int
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &h, &m, &sec); err != nil {
		return 0, fmt.Errorf("gtfs: bad time %q: %v", s, err)
	}
	if h < 0 || m < 0 || m > 59 || sec < 0 || sec > 59 {
		return 0, fmt.Errorf("gtfs: bad time %q", s)
	}
	return Seconds(h*3600 + m*60 + sec), nil
}

// String formats the time as "HH:MM:SS".
func (s Seconds) String() string {
	return fmt.Sprintf("%02d:%02d:%02d", s/3600, (s/60)%60, s%60)
}

// StopID identifies a transit stop.
type StopID string

// RouteID identifies a transit route (e.g. a bus line).
type RouteID string

// TripID identifies one scheduled run of a route.
type TripID string

// ServiceID identifies a service calendar entry.
type ServiceID string

// Stop is a boarding location.
type Stop struct {
	ID    StopID
	Name  string
	Point geo.Point
}

// RouteType enumerates GTFS route types; only the ones the synthetic cities
// use are named.
type RouteType int

// Route types per the GTFS reference.
const (
	RouteTram  RouteType = 0
	RouteMetro RouteType = 1
	RouteRail  RouteType = 2
	RouteBus   RouteType = 3
)

// Route is a transit line.
type Route struct {
	ID        RouteID
	ShortName string
	LongName  string
	Type      RouteType
	// FareFlat is the flat fare in pence charged for boarding the route.
	// (GTFS models fares in separate files; a flat per-boarding fare is all
	// the generalized-cost model needs.)
	FareFlat float64
}

// StopTime is one scheduled stop visit within a trip.
type StopTime struct {
	StopID    StopID
	Arrival   Seconds
	Departure Seconds
	Seq       int
}

// Trip is one scheduled run of a route with its ordered stop times.
type Trip struct {
	ID        TripID
	RouteID   RouteID
	ServiceID ServiceID
	Headsign  string
	StopTimes []StopTime
}

// Service is a calendar entry marking which weekdays the service runs.
type Service struct {
	ID       ServiceID
	Weekdays [7]bool // indexed by time.Weekday (Sunday = 0)
}

// RunsOn reports whether the service operates on the given weekday.
func (s Service) RunsOn(d time.Weekday) bool { return s.Weekdays[d] }

// Interval is the time interval v = [t_s, t_e, t_d] from the paper: a start
// and end time of day on a given weekday.
type Interval struct {
	Start Seconds
	End   Seconds
	Day   time.Weekday
	Label string // e.g. "weekday AM peak"
}

// Duration returns the interval length in seconds.
func (v Interval) Duration() Seconds { return v.End - v.Start }

// Feed is an in-memory GTFS feed.
type Feed struct {
	Stops    []Stop
	Routes   []Route
	Trips    []Trip
	Services []Service

	stopByID    map[StopID]int
	routeByID   map[RouteID]int
	serviceByID map[ServiceID]int
	// tripIDs holds the ID of every trip in Trips, for AddTrip's
	// duplicate check. It is built from Trips on first use, and Clone
	// drops it, so a clone whose Trips were replaced builds its own.
	tripIDs map[TripID]struct{}
}

// NewFeed returns an empty feed.
func NewFeed() *Feed {
	return &Feed{
		stopByID:    make(map[StopID]int),
		routeByID:   make(map[RouteID]int),
		serviceByID: make(map[ServiceID]int),
	}
}

// Clone returns a feed sharing the immutable stop/route/service records
// and their lookup maps, with an independent Trips slice.
// Callers that mutate a trip's StopTimes must replace the trip value with
// one holding a fresh StopTimes slice; the shared records must never be
// edited in place. This is the copy-on-write seam the scenario delta layer
// uses to derive a mutated timetable without duplicating the whole feed.
func (f *Feed) Clone() *Feed {
	out := &Feed{
		Stops:       f.Stops,
		Routes:      f.Routes,
		Services:    f.Services,
		Trips:       append([]Trip(nil), f.Trips...),
		stopByID:    f.stopByID,
		routeByID:   f.routeByID,
		serviceByID: f.serviceByID,
	}
	return out
}

// AddStop appends a stop. Duplicate IDs are rejected.
func (f *Feed) AddStop(s Stop) error {
	if _, dup := f.stopByID[s.ID]; dup {
		return fmt.Errorf("gtfs: duplicate stop %q", s.ID)
	}
	f.stopByID[s.ID] = len(f.Stops)
	f.Stops = append(f.Stops, s)
	return nil
}

// AddRoute appends a route. Duplicate IDs are rejected.
func (f *Feed) AddRoute(r Route) error {
	if _, dup := f.routeByID[r.ID]; dup {
		return fmt.Errorf("gtfs: duplicate route %q", r.ID)
	}
	f.routeByID[r.ID] = len(f.Routes)
	f.Routes = append(f.Routes, r)
	return nil
}

// AddService appends a service calendar entry. Duplicate IDs are rejected.
func (f *Feed) AddService(s Service) error {
	if _, dup := f.serviceByID[s.ID]; dup {
		return fmt.Errorf("gtfs: duplicate service %q", s.ID)
	}
	f.serviceByID[s.ID] = len(f.Services)
	f.Services = append(f.Services, s)
	return nil
}

// AddTrip appends a trip after validating its references and stop-time
// ordering. A trip whose ID is already in the feed is rejected: departures
// and itineraries name a trip by its ID.
func (f *Feed) AddTrip(t Trip) error {
	if f.tripIDs == nil {
		f.tripIDs = make(map[TripID]struct{}, len(f.Trips))
		for i := range f.Trips {
			f.tripIDs[f.Trips[i].ID] = struct{}{}
		}
	}
	if _, dup := f.tripIDs[t.ID]; dup {
		return fmt.Errorf("gtfs: duplicate trip %q", t.ID)
	}
	if _, ok := f.routeByID[t.RouteID]; !ok {
		return fmt.Errorf("gtfs: trip %q references unknown route %q", t.ID, t.RouteID)
	}
	if _, ok := f.serviceByID[t.ServiceID]; !ok {
		return fmt.Errorf("gtfs: trip %q references unknown service %q", t.ID, t.ServiceID)
	}
	if len(t.StopTimes) < 2 {
		return fmt.Errorf("gtfs: trip %q has %d stop times, need >= 2", t.ID, len(t.StopTimes))
	}
	for i, st := range t.StopTimes {
		if _, ok := f.stopByID[st.StopID]; !ok {
			return fmt.Errorf("gtfs: trip %q stop time %d references unknown stop %q", t.ID, i, st.StopID)
		}
		if st.Departure < st.Arrival {
			return fmt.Errorf("gtfs: trip %q stop %d departs before arriving", t.ID, i)
		}
		if i > 0 {
			prev := t.StopTimes[i-1]
			if st.Arrival < prev.Departure {
				return fmt.Errorf("gtfs: trip %q stop %d arrives before previous departure", t.ID, i)
			}
			if st.Seq <= prev.Seq {
				return fmt.Errorf("gtfs: trip %q stop sequence not increasing at %d", t.ID, i)
			}
		}
	}
	f.Trips = append(f.Trips, t)
	f.tripIDs[t.ID] = struct{}{}
	return nil
}

// Stop returns the stop with the given ID.
func (f *Feed) Stop(id StopID) (Stop, bool) {
	i, ok := f.stopByID[id]
	if !ok {
		return Stop{}, false
	}
	return f.Stops[i], true
}

// Route returns the route with the given ID.
func (f *Feed) Route(id RouteID) (Route, bool) {
	i, ok := f.routeByID[id]
	if !ok {
		return Route{}, false
	}
	return f.Routes[i], true
}

// Service returns the service with the given ID.
func (f *Feed) Service(id ServiceID) (Service, bool) {
	i, ok := f.serviceByID[id]
	if !ok {
		return Service{}, false
	}
	return f.Services[i], true
}

// Departure is one upcoming departure from a stop.
type Departure struct {
	TripID    TripID
	RouteID   RouteID
	Departure Seconds
	// StopIndex is the position of the stop within the trip's stop list.
	StopIndex int
}

// ServiceTrips returns the trips operating on the given weekday. The
// returned slice is freshly allocated and safe to retain.
func (f *Feed) ServiceTrips(day time.Weekday) []Trip {
	var out []Trip
	for _, t := range f.Trips {
		if svc, ok := f.Service(t.ServiceID); ok && svc.RunsOn(day) {
			out = append(out, t)
		}
	}
	return out
}

// Index is a read-only schedule index over a feed, answering departure
// queries in O(log n + k). Build one with NewIndex after the feed is fully
// populated.
type Index struct {
	feed *Feed
	// trips are the day's operating trips.
	trips []Trip
	// deps[stop] is sorted by departure time.
	deps map[StopID][]indexedDep
}

type indexedDep struct {
	dep  Seconds
	trip int // index into Index.trips
	seq  int // index into trip.StopTimes
}

// NewIndex builds a schedule index restricted to services running on the
// given weekday.
func NewIndex(f *Feed, day time.Weekday) *Index {
	trips := f.ServiceTrips(day)
	ix := &Index{
		feed:  f,
		trips: trips,
		deps:  make(map[StopID][]indexedDep),
	}
	for ti := range trips {
		t := &trips[ti]
		for si, st := range t.StopTimes {
			if si == len(t.StopTimes)-1 {
				continue // final stop: nothing departs
			}
			ix.deps[st.StopID] = append(ix.deps[st.StopID], indexedDep{
				dep: st.Departure, trip: ti, seq: si,
			})
		}
	}
	for stop := range ix.deps {
		d := ix.deps[stop]
		sort.Slice(d, func(i, j int) bool { return d[i].dep < d[j].dep })
	}
	return ix
}

// NextDepartures returns up to limit departures from stop at or after t,
// ordered by departure time.
func (ix *Index) NextDepartures(stop StopID, t Seconds, limit int) []Departure {
	d := ix.deps[stop]
	lo := sort.Search(len(d), func(i int) bool { return d[i].dep >= t })
	var out []Departure
	for i := lo; i < len(d) && i-lo < limit; i++ {
		tr := &ix.trips[d[i].trip]
		out = append(out, Departure{
			TripID:    tr.ID,
			RouteID:   tr.RouteID,
			Departure: d[i].dep,
			StopIndex: d[i].seq,
		})
	}
	return out
}

// EachDeparture calls fn for every departure from stop, in the order
// NextDepartures lists them: departure time, the trip's position in
// Trips, and the stop's position within the trip. It is the allocation-free
// walk a caller compiling the schedule into its own arrays makes.
func (ix *Index) EachDeparture(stop StopID, fn func(dep Seconds, trip, stopIndex int)) {
	for _, d := range ix.deps[stop] {
		fn(d.dep, d.trip, d.seq)
	}
}

// Trips returns the day's operating trips. The slice must not be modified.
func (ix *Index) Trips() []Trip { return ix.trips }

// Feed returns the underlying feed.
func (ix *Index) Feed() *Feed { return ix.feed }

// StopsWithDepartures returns the IDs of all stops that have at least one
// departure in the index, in unspecified order.
func (ix *Index) StopsWithDepartures() []StopID {
	out := make([]StopID, 0, len(ix.deps))
	for s := range ix.deps {
		out = append(out, s)
	}
	return out
}
