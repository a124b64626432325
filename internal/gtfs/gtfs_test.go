package gtfs

import (
	"math"
	"reflect"
	"testing"
	"time"

	"accessquery/internal/geo"
)

// Minutes returns the value in fractional minutes.
func (s Seconds) Minutes() float64 { return float64(s) / 60 }

// Contains reports whether t falls within the interval (inclusive start,
// exclusive end).
func (v Interval) Contains(t Seconds) bool { return t >= v.Start && t < v.End }

func TestParseSeconds(t *testing.T) {
	cases := []struct {
		in   string
		want Seconds
		ok   bool
	}{
		{"00:00:00", 0, true},
		{"08:30:15", 8*3600 + 30*60 + 15, true},
		{"25:10:00", 25*3600 + 10*60, true}, // past-midnight trips are legal
		{"7:05:09", 7*3600 + 5*60 + 9, true},
		{"garbage", 0, false},
		{"08:61:00", 0, false},
		{"08:00:75", 0, false},
		{"-1:00:00", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSeconds(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseSeconds(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSeconds(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []Seconds{0, 1, 59, 3600, 86399, 90000} {
		got, err := ParseSeconds(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %d -> %q -> %d (err %v)", s, s.String(), got, err)
		}
	}
}

func TestSecondsMinutes(t *testing.T) {
	if m := Seconds(90).Minutes(); m != 1.5 {
		t.Errorf("Minutes = %v", m)
	}
}

func TestIntervalContains(t *testing.T) {
	v := Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday}
	if !v.Contains(8 * 3600) {
		t.Error("8am should be in the AM peak")
	}
	if !v.Contains(7 * 3600) {
		t.Error("start is inclusive")
	}
	if v.Contains(9 * 3600) {
		t.Error("end is exclusive")
	}
	if v.Duration() != 2*3600 {
		t.Errorf("duration = %d", v.Duration())
	}
}

// testFeed builds a small two-route feed:
//
//	route R1 (weekdays): A -> B -> C, trips every 20 min from 07:00
//	route R2 (daily):    C -> A, one trip at 08:00
func testFeed(t *testing.T) *Feed {
	t.Helper()
	f := NewFeed()
	base := geo.Point{Lat: 52.48, Lon: -1.89}
	stops := []Stop{
		{ID: "A", Name: "Alpha", Point: base},
		{ID: "B", Name: "Beta", Point: geo.Offset(base, 1000, 0)},
		{ID: "C", Name: "Gamma", Point: geo.Offset(base, 2000, 0)},
	}
	for _, s := range stops {
		if err := f.AddStop(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddRoute(Route{ID: "R1", ShortName: "1", Type: RouteBus, FareFlat: 200}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddRoute(Route{ID: "R2", ShortName: "2", Type: RouteBus, FareFlat: 200}); err != nil {
		t.Fatal(err)
	}
	weekdays := Service{ID: "WK"}
	for d := time.Monday; d <= time.Friday; d++ {
		weekdays.Weekdays[d] = true
	}
	daily := Service{ID: "DAY"}
	for d := 0; d < 7; d++ {
		daily.Weekdays[d] = true
	}
	if err := f.AddService(weekdays); err != nil {
		t.Fatal(err)
	}
	if err := f.AddService(daily); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		dep := Seconds(7*3600 + i*1200)
		trip := Trip{
			ID: TripID("T1_" + string(rune('a'+i))), RouteID: "R1", ServiceID: "WK",
			StopTimes: []StopTime{
				{StopID: "A", Arrival: dep, Departure: dep, Seq: 1},
				{StopID: "B", Arrival: dep + 300, Departure: dep + 330, Seq: 2},
				{StopID: "C", Arrival: dep + 600, Departure: dep + 600, Seq: 3},
			},
		}
		if err := f.AddTrip(trip); err != nil {
			t.Fatal(err)
		}
	}
	back := Trip{
		ID: "T2_a", RouteID: "R2", ServiceID: "DAY",
		StopTimes: []StopTime{
			{StopID: "C", Arrival: 8 * 3600, Departure: 8 * 3600, Seq: 1},
			{StopID: "A", Arrival: 8*3600 + 700, Departure: 8*3600 + 700, Seq: 2},
		},
	}
	if err := f.AddTrip(back); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFeedLookups(t *testing.T) {
	f := testFeed(t)
	if s, ok := f.Stop("B"); !ok || s.Name != "Beta" {
		t.Errorf("Stop(B) = %+v, %v", s, ok)
	}
	if _, ok := f.Stop("Z"); ok {
		t.Error("Stop(Z) should not exist")
	}
	if r, ok := f.Route("R1"); !ok || r.FareFlat != 200 {
		t.Errorf("Route(R1) = %+v, %v", r, ok)
	}
	if svc, ok := f.Service("WK"); !ok || svc.RunsOn(time.Saturday) {
		t.Errorf("Service(WK) = %+v, %v", svc, ok)
	}
}

func TestFeedDuplicateRejection(t *testing.T) {
	f := testFeed(t)
	if err := f.AddStop(Stop{ID: "A"}); err == nil {
		t.Error("duplicate stop should fail")
	}
	if err := f.AddRoute(Route{ID: "R1"}); err == nil {
		t.Error("duplicate route should fail")
	}
	if err := f.AddService(Service{ID: "WK"}); err == nil {
		t.Error("duplicate service should fail")
	}
	// An otherwise valid trip under an ID the feed has is rejected: a
	// departure of the first would resolve to the second by ID.
	dup := f.Trips[0]
	dup.StopTimes = []StopTime{
		{StopID: "C", Arrival: 100, Departure: 100, Seq: 1},
		{StopID: "A", Arrival: 200, Departure: 200, Seq: 2},
	}
	if err := f.AddTrip(dup); err == nil {
		t.Errorf("duplicate trip %q should fail", dup.ID)
	}
	if n := len(f.Trips); n != 7 {
		t.Errorf("rejected trip was added: %d trips", n)
	}
}

// TestCloneTripIDs: a clone checks trip IDs against its own trips. It
// rejects an inherited ID, its additions do not reach the base, and once
// its Trips are replaced (as a timetable delta does) it checks against the
// replacement.
func TestCloneTripIDs(t *testing.T) {
	f := testFeed(t)
	y := f.Trips[0]
	y.ID = "Y"
	c := f.Clone()
	if err := c.AddTrip(f.Trips[0]); err == nil {
		t.Error("clone accepted an ID it inherited")
	}
	if err := c.AddTrip(y); err != nil {
		t.Fatal(err)
	}
	if err := f.AddTrip(y); err != nil {
		t.Errorf("the clone's trip leaked into the base's IDs: %v", err)
	}
	thinned := f.Clone()
	thinned.Trips = thinned.Trips[1:]
	if err := thinned.AddTrip(f.Trips[0]); err != nil {
		t.Errorf("a clone without %q rejects it: %v", f.Trips[0].ID, err)
	}
}

func TestAddTripValidation(t *testing.T) {
	f := testFeed(t)
	mk := func(mutate func(*Trip)) Trip {
		tr := Trip{
			ID: "X", RouteID: "R1", ServiceID: "WK",
			StopTimes: []StopTime{
				{StopID: "A", Arrival: 100, Departure: 100, Seq: 1},
				{StopID: "B", Arrival: 200, Departure: 200, Seq: 2},
			},
		}
		mutate(&tr)
		return tr
	}
	cases := []struct {
		name   string
		mutate func(*Trip)
	}{
		{"unknown route", func(tr *Trip) { tr.RouteID = "nope" }},
		{"unknown service", func(tr *Trip) { tr.ServiceID = "nope" }},
		{"unknown stop", func(tr *Trip) { tr.StopTimes[0].StopID = "nope" }},
		{"single stop", func(tr *Trip) { tr.StopTimes = tr.StopTimes[:1] }},
		{"departs before arrival", func(tr *Trip) { tr.StopTimes[0].Departure = 50 }},
		{"time travel", func(tr *Trip) { tr.StopTimes[1].Arrival = 50 }},
		{"non-increasing seq", func(tr *Trip) { tr.StopTimes[1].Seq = 1 }},
	}
	for _, c := range cases {
		if err := f.AddTrip(mk(c.mutate)); err == nil {
			t.Errorf("%s: AddTrip should fail", c.name)
		}
	}
	if err := f.AddTrip(mk(func(*Trip) {})); err != nil {
		t.Errorf("valid trip rejected: %v", err)
	}
}

// departuresBetween lists the departures from stop in [from, to).
func departuresBetween(ix *Index, stop StopID, from, to Seconds) []Departure {
	var out []Departure
	for _, d := range ix.NextDepartures(stop, from, math.MaxInt) {
		if d.Departure < to {
			out = append(out, d)
		}
	}
	return out
}

func TestIndexDepartures(t *testing.T) {
	f := testFeed(t)
	ix := NewIndex(f, time.Tuesday)
	// From stop A between 07:00 and 08:00: R1 trips at 07:00, 07:20, 07:40.
	deps := departuresBetween(ix, "A", 7*3600, 8*3600)
	if len(deps) != 3 {
		t.Fatalf("got %d departures, want 3: %+v", len(deps), deps)
	}
	for i := 1; i < len(deps); i++ {
		if deps[i].Departure < deps[i-1].Departure {
			t.Error("departures not ordered")
		}
	}
	if deps[0].RouteID != "R1" || deps[0].Departure != 7*3600 {
		t.Errorf("first departure = %+v", deps[0])
	}
}

func TestIndexWeekdayFilter(t *testing.T) {
	f := testFeed(t)
	sunday := NewIndex(f, time.Sunday)
	// R1 does not run on Sunday; only R2 from C.
	if deps := departuresBetween(sunday, "A", 0, 24*3600); len(deps) != 0 {
		t.Errorf("Sunday departures from A = %+v, want none", deps)
	}
	if deps := departuresBetween(sunday, "C", 0, 24*3600); len(deps) != 1 {
		t.Errorf("Sunday departures from C = %+v, want 1", deps)
	}
}

func TestIndexTerminalStopHasNoDepartures(t *testing.T) {
	f := testFeed(t)
	ix := NewIndex(f, time.Tuesday)
	for _, d := range departuresBetween(ix, "C", 0, 24*3600) {
		if d.RouteID == "R1" {
			t.Errorf("terminal stop C should have no R1 departures, got %+v", d)
		}
	}
}

func TestNextDepartures(t *testing.T) {
	f := testFeed(t)
	ix := NewIndex(f, time.Tuesday)
	deps := ix.NextDepartures("A", 7*3600+60, 2)
	if len(deps) != 2 {
		t.Fatalf("got %d, want 2", len(deps))
	}
	if deps[0].Departure != 7*3600+1200 {
		t.Errorf("first = %v, want 07:20", deps[0].Departure)
	}
	if deps := ix.NextDepartures("A", 23*3600, 5); len(deps) != 0 {
		t.Errorf("late-night departures = %+v", deps)
	}
	if deps := ix.NextDepartures("unknown", 0, 5); len(deps) != 0 {
		t.Errorf("unknown stop departures = %+v", deps)
	}
}

// TestEachDepartureMatchesNextDepartures: the allocation-free walk visits
// a stop's departures in NextDepartures' order, naming each trip by its
// position in Trips.
func TestEachDepartureMatchesNextDepartures(t *testing.T) {
	f := testFeed(t)
	ix := NewIndex(f, time.Tuesday)
	for _, stop := range []StopID{"A", "B", "C", "unknown"} {
		want := ix.NextDepartures(stop, math.MinInt32, math.MaxInt)
		var got []Departure
		ix.EachDeparture(stop, func(dep Seconds, trip, stopIndex int) {
			tr := ix.Trips()[trip]
			got = append(got, Departure{TripID: tr.ID, RouteID: tr.RouteID, Departure: dep, StopIndex: stopIndex})
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stop %s: EachDeparture %+v, NextDepartures %+v", stop, got, want)
		}
	}
}

func TestStopsWithDepartures(t *testing.T) {
	f := testFeed(t)
	ix := NewIndex(f, time.Tuesday)
	stops := ix.StopsWithDepartures()
	want := map[StopID]bool{"A": true, "B": true, "C": true}
	if len(stops) != len(want) {
		t.Fatalf("stops = %v", stops)
	}
	for _, s := range stops {
		if !want[s] {
			t.Errorf("unexpected stop %q", s)
		}
	}
}
