package gtfs

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Frequency declares headway-based service for a template trip, mirroring
// GTFS frequencies.txt: the trip repeats every Headway seconds with
// departures in [Start, End). The template trip's stop times define the
// relative schedule; each materialized run shifts them so the first
// departure matches the run's start.
type Frequency struct {
	TripID  TripID
	Start   Seconds
	End     Seconds
	Headway Seconds
}

// AddFrequency registers a frequency entry after validating it against the
// feed.
func (f *Feed) AddFrequency(fr Frequency) error {
	if _, ok := f.tripByID(fr.TripID); !ok {
		return fmt.Errorf("gtfs: frequency references unknown trip %q", fr.TripID)
	}
	if fr.End <= fr.Start {
		return fmt.Errorf("gtfs: frequency for %q has empty window", fr.TripID)
	}
	if fr.Headway <= 0 {
		return fmt.Errorf("gtfs: frequency for %q has non-positive headway", fr.TripID)
	}
	f.Frequencies = append(f.Frequencies, fr)
	return nil
}

// tripByID finds a trip by scanning; feeds keep trips in a slice to
// preserve order, and frequency registration is rare enough that a linear
// scan is fine.
func (f *Feed) tripByID(id TripID) (*Trip, bool) {
	for i := range f.Trips {
		if f.Trips[i].ID == id {
			return &f.Trips[i], true
		}
	}
	return nil, false
}

// FileFrequencies is the GTFS frequencies file name.
const FileFrequencies = "frequencies.txt"

// writeFrequencies emits frequencies.txt; the file is omitted when the
// feed has no frequency entries.
func (f *Feed) writeFrequencies(w *csv.Writer) error {
	if err := w.Write([]string{"trip_id", "start_time", "end_time", "headway_secs"}); err != nil {
		return err
	}
	for _, fr := range f.Frequencies {
		rec := []string{
			string(fr.TripID), fr.Start.String(), fr.End.String(),
			strconv.Itoa(int(fr.Headway)),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func (f *Feed) readFrequencyRecord(h header, rec []string) error {
	id, err := h.get(rec, "trip_id")
	if err != nil {
		return err
	}
	startS, err := h.get(rec, "start_time")
	if err != nil {
		return err
	}
	endS, err := h.get(rec, "end_time")
	if err != nil {
		return err
	}
	headS, err := h.get(rec, "headway_secs")
	if err != nil {
		return err
	}
	start, err := ParseSeconds(startS)
	if err != nil {
		return err
	}
	end, err := ParseSeconds(endS)
	if err != nil {
		return err
	}
	head, err := strconv.Atoi(headS)
	if err != nil {
		return fmt.Errorf("frequency for %q: bad headway %q", id, headS)
	}
	return f.AddFrequency(Frequency{
		TripID: TripID(id), Start: start, End: end, Headway: Seconds(head),
	})
}

// maybeReadFrequencies reads frequencies.txt when present.
func (f *Feed) maybeReadFrequencies(dir string) error {
	path := filepath.Join(dir, FileFrequencies)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil
	}
	return readCSVFile(path, f.readFrequencyRecord)
}

// expandFrequencies materializes the runs a frequency entry implies: the
// template's stop times shifted so the run departs at each headway tick.
// Returned trips carry synthesized IDs "<template>#<n>", n counting a
// template's runs across all of its entries, so a template served in two
// windows still names every run apart. Templates with frequency entries
// should not also run as scheduled trips; NewIndex excludes them.
func (f *Feed) expandFrequencies() []Trip {
	var out []Trip
	runs := make(map[TripID]int)
	for _, fr := range f.Frequencies {
		tpl, ok := f.tripByID(fr.TripID)
		if !ok || len(tpl.StopTimes) == 0 {
			continue
		}
		base := tpl.StopTimes[0].Departure
		n := runs[tpl.ID]
		for dep := fr.Start; dep < fr.End; dep += fr.Headway {
			shift := dep - base
			run := Trip{
				ID:        TripID(fmt.Sprintf("%s#%d", tpl.ID, n)),
				RouteID:   tpl.RouteID,
				ServiceID: tpl.ServiceID,
				Headsign:  tpl.Headsign,
				StopTimes: make([]StopTime, len(tpl.StopTimes)),
			}
			for i, st := range tpl.StopTimes {
				run.StopTimes[i] = StopTime{
					StopID:    st.StopID,
					Arrival:   st.Arrival + shift,
					Departure: st.Departure + shift,
					Seq:       st.Seq,
				}
			}
			out = append(out, run)
			n++
		}
		runs[tpl.ID] = n
	}
	return out
}

// hasFrequency reports whether a trip is a frequency template.
func (f *Feed) hasFrequency(id TripID) bool {
	for _, fr := range f.Frequencies {
		if fr.TripID == id {
			return true
		}
	}
	return false
}
