package gtfs

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"accessquery/internal/geo"
)

// TestWriteDirGolden pins the exact bytes WriteDir emits for a small feed:
// column order, full-precision coordinates, two-decimal fares, HH:MM:SS
// times, 0/1 calendar days and CSV quoting.
func TestWriteDirGolden(t *testing.T) {
	f := NewFeed()
	for _, s := range []Stop{
		{ID: "A", Name: "Alpha", Point: geo.Point{Lat: 52.4862, Lon: -1.8904}},
		{ID: "B", Name: "Beta, North", Point: geo.Point{Lat: 52.40656, Lon: -1.51217}},
	} {
		if err := f.AddStop(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddRoute(Route{ID: "R1", ShortName: "1", LongName: "Alpha - Beta", Type: RouteBus, FareFlat: 2.5}); err != nil {
		t.Fatal(err)
	}
	wk := Service{ID: "WK"}
	for d := time.Monday; d <= time.Friday; d++ {
		wk.Weekdays[d] = true
	}
	if err := f.AddService(wk); err != nil {
		t.Fatal(err)
	}
	if err := f.AddTrip(Trip{
		ID: "T1", RouteID: "R1", ServiceID: "WK", Headsign: "Beta",
		StopTimes: []StopTime{
			{StopID: "A", Arrival: 7 * 3600, Departure: 7*3600 + 30, Seq: 1},
			{StopID: "B", Arrival: 25*3600 + 5, Departure: 25*3600 + 5, Seq: 2},
		},
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := f.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		FileStops: "stop_id,stop_name,stop_lat,stop_lon\n" +
			"A,Alpha,52.4862,-1.8904\n" +
			"B,\"Beta, North\",52.40656,-1.51217\n",
		FileRoutes: "route_id,route_short_name,route_long_name,route_type,fare_flat\n" +
			"R1,1,Alpha - Beta,3,2.50\n",
		FileTrips: "route_id,service_id,trip_id,trip_headsign\n" +
			"R1,WK,T1,Beta\n",
		FileStopTimes: "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n" +
			"T1,07:00:00,07:00:30,A,1\n" +
			"T1,25:00:05,25:00:05,B,2\n",
		FileCalendar: "service_id,sunday,monday,tuesday,wednesday,thursday,friday,saturday\n" +
			"WK,0,1,1,1,1,1,0\n",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("WriteDir wrote %d files, want %d", len(entries), len(want))
	}
	for name, w := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if string(got) != w {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", name, got, w)
		}
	}
}

func TestWriteDirCreatesDirectory(t *testing.T) {
	f := testFeed(t)
	dir := filepath.Join(t.TempDir(), "nested", "gtfs")
	if err := f.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileStops)); err != nil {
		t.Error("stops.txt missing")
	}
}
