package gtfs

import (
	"reflect"
	"testing"
	"time"
)

// freqFeed builds a feed with one template trip A->B->C served by
// frequencies every 15 min from 07:00 to 08:00 plus one ordinary scheduled
// trip at 09:00.
func freqFeed(t *testing.T) *Feed {
	t.Helper()
	f := testFeed(t) // A, B, C stops; routes R1, R2; services WK, DAY
	template := Trip{
		ID: "FREQ_TPL", RouteID: "R1", ServiceID: "DAY",
		StopTimes: []StopTime{
			{StopID: "A", Arrival: 0, Departure: 0, Seq: 1},
			{StopID: "B", Arrival: 300, Departure: 310, Seq: 2},
			{StopID: "C", Arrival: 600, Departure: 600, Seq: 3},
		},
	}
	if err := f.AddTrip(template); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFrequency(Frequency{
		TripID: "FREQ_TPL", Start: 7 * 3600, End: 8 * 3600, Headway: 900,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddFrequencyValidation(t *testing.T) {
	f := testFeed(t)
	if err := f.AddFrequency(Frequency{TripID: "nope", Start: 0, End: 100, Headway: 10}); err == nil {
		t.Error("unknown trip should fail")
	}
	if err := f.AddFrequency(Frequency{TripID: "T1_a", Start: 100, End: 100, Headway: 10}); err == nil {
		t.Error("empty window should fail")
	}
	if err := f.AddFrequency(Frequency{TripID: "T1_a", Start: 0, End: 100, Headway: 0}); err == nil {
		t.Error("zero headway should fail")
	}
}

func TestExpandFrequencies(t *testing.T) {
	f := freqFeed(t)
	runs := f.expandFrequencies()
	// 07:00..08:00 at 900 s: 07:00, 07:15, 07:30, 07:45 = 4 runs.
	if len(runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(runs))
	}
	first := runs[0]
	if first.StopTimes[0].Departure != 7*3600 {
		t.Errorf("first run departs %v", first.StopTimes[0].Departure)
	}
	// Relative offsets preserved: B at +300/+310, C at +600.
	if first.StopTimes[1].Arrival != 7*3600+300 || first.StopTimes[1].Departure != 7*3600+310 {
		t.Errorf("first run stop B times wrong: %+v", first.StopTimes[1])
	}
	last := runs[3]
	if last.StopTimes[0].Departure != 7*3600+2700 {
		t.Errorf("last run departs %v", last.StopTimes[0].Departure)
	}
	// Distinct IDs.
	seen := map[TripID]bool{}
	for _, r := range runs {
		if seen[r.ID] {
			t.Errorf("duplicate run id %q", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestExpandFrequenciesTwoWindows: a template served in a morning and an
// evening window numbers its runs on across both, so no two runs of the
// day share an ID.
func TestExpandFrequenciesTwoWindows(t *testing.T) {
	f := freqFeed(t)
	if err := f.AddFrequency(Frequency{TripID: "FREQ_TPL", Start: 17 * 3600, End: 17*3600 + 1800, Headway: 900}); err != nil {
		t.Fatal(err)
	}
	var ids []TripID
	for _, r := range f.expandFrequencies() {
		ids = append(ids, r.ID)
	}
	want := []TripID{"FREQ_TPL#0", "FREQ_TPL#1", "FREQ_TPL#2", "FREQ_TPL#3", "FREQ_TPL#4", "FREQ_TPL#5"}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("run IDs %v, want %v", ids, want)
	}
}

func TestServiceTripsWithFrequencies(t *testing.T) {
	f := freqFeed(t)
	trips := f.ServiceTrips(time.Tuesday)
	var templates, runs int
	for _, tr := range trips {
		if tr.ID == "FREQ_TPL" {
			templates++
		}
		if len(tr.ID) > 8 && tr.ID[:8] == "FREQ_TPL" {
			runs++
		}
	}
	if templates != 0 {
		t.Error("frequency template must not appear as an operating trip")
	}
	if runs != 4 {
		t.Errorf("got %d materialized runs, want 4", runs)
	}
	// Regular trips still present: 6 R1 trips + 1 R2 trip.
	if len(trips) != 7+4 {
		t.Errorf("total operating trips = %d, want 11", len(trips))
	}
}

func TestIndexWithFrequencies(t *testing.T) {
	f := freqFeed(t)
	ix := NewIndex(f, time.Tuesday)
	// Departures from A between 07:00 and 08:00: 3 scheduled R1 trips
	// (07:00, 07:20, 07:40) + 4 frequency runs.
	deps := ix.DeparturesBetween("A", 7*3600, 8*3600)
	if len(deps) != 7 {
		t.Fatalf("got %d departures, want 7: %+v", len(deps), deps)
	}
	// A materialized run is retrievable by its synthesized ID.
	var runID TripID
	for _, d := range deps {
		if d.TripID != "T1_a" && d.TripID != "T1_b" && d.TripID != "T1_c" {
			runID = d.TripID
			break
		}
	}
	if runID == "" {
		t.Fatal("no frequency run in departures")
	}
	tr, ok := ix.Trip(runID)
	if !ok || tr.RouteID != "R1" {
		t.Errorf("run lookup failed: %+v ok=%v", tr, ok)
	}
	// The template ID is not an operating trip.
	if _, ok := ix.Trip("FREQ_TPL"); ok {
		t.Error("template should not be retrievable as an operating trip")
	}
}

func TestFrequenciesCSVRoundTrip(t *testing.T) {
	f := freqFeed(t)
	dir := t.TempDir()
	if err := f.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frequencies) != 1 {
		t.Fatalf("got %d frequencies", len(got.Frequencies))
	}
	fr := got.Frequencies[0]
	if fr.TripID != "FREQ_TPL" || fr.Start != 7*3600 || fr.End != 8*3600 || fr.Headway != 900 {
		t.Errorf("frequency corrupted: %+v", fr)
	}
	// Expansion works identically after the round trip.
	ix := NewIndex(got, time.Tuesday)
	deps := ix.DeparturesBetween("A", 7*3600, 8*3600)
	if len(deps) != 7 {
		t.Errorf("departures after round trip = %d, want 7", len(deps))
	}
}

func TestWriteDirOmitsEmptyFrequencies(t *testing.T) {
	f := testFeed(t)
	dir := t.TempDir()
	if err := f.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err != nil {
		t.Fatalf("feed without frequencies should read back: %v", err)
	}
}
