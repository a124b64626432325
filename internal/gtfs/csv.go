package gtfs

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// File names of the GTFS text files WriteDir writes.
const (
	FileStops     = "stops.txt"
	FileRoutes    = "routes.txt"
	FileTrips     = "trips.txt"
	FileStopTimes = "stop_times.txt"
	FileCalendar  = "calendar.txt"
)

// WriteDir serializes the feed to dir as GTFS CSV text files, creating the
// directory if needed.
func (f *Feed) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("gtfs: %w", err)
	}
	writers := []struct {
		name string
		fn   func(w *csv.Writer) error
	}{
		{FileStops, f.writeStops},
		{FileRoutes, f.writeRoutes},
		{FileTrips, f.writeTrips},
		{FileStopTimes, f.writeStopTimes},
		{FileCalendar, f.writeCalendar},
	}
	for _, spec := range writers {
		if err := writeCSVFile(filepath.Join(dir, spec.name), spec.fn); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVFile(path string, fn func(w *csv.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gtfs: %w", err)
	}
	w := csv.NewWriter(file)
	if err := fn(w); err != nil {
		file.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		file.Close()
		return fmt.Errorf("gtfs: writing %s: %w", path, err)
	}
	return file.Close()
}

func (f *Feed) writeStops(w *csv.Writer) error {
	if err := w.Write([]string{"stop_id", "stop_name", "stop_lat", "stop_lon"}); err != nil {
		return err
	}
	for _, s := range f.Stops {
		// Full float precision: the pipeline's walking times derive from
		// stop coordinates, and a lossy write would make a reader of the
		// feed answer queries slightly differently.
		rec := []string{
			string(s.ID), s.Name,
			strconv.FormatFloat(s.Point.Lat, 'g', -1, 64),
			strconv.FormatFloat(s.Point.Lon, 'g', -1, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func (f *Feed) writeRoutes(w *csv.Writer) error {
	if err := w.Write([]string{"route_id", "route_short_name", "route_long_name", "route_type", "fare_flat"}); err != nil {
		return err
	}
	for _, r := range f.Routes {
		rec := []string{
			string(r.ID), r.ShortName, r.LongName,
			strconv.Itoa(int(r.Type)),
			strconv.FormatFloat(r.FareFlat, 'f', 2, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func (f *Feed) writeTrips(w *csv.Writer) error {
	if err := w.Write([]string{"route_id", "service_id", "trip_id", "trip_headsign"}); err != nil {
		return err
	}
	for _, t := range f.Trips {
		if err := w.Write([]string{string(t.RouteID), string(t.ServiceID), string(t.ID), t.Headsign}); err != nil {
			return err
		}
	}
	return nil
}

func (f *Feed) writeStopTimes(w *csv.Writer) error {
	if err := w.Write([]string{"trip_id", "arrival_time", "departure_time", "stop_id", "stop_sequence"}); err != nil {
		return err
	}
	for _, t := range f.Trips {
		for _, st := range t.StopTimes {
			rec := []string{
				string(t.ID), st.Arrival.String(), st.Departure.String(),
				string(st.StopID), strconv.Itoa(st.Seq),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *Feed) writeCalendar(w *csv.Writer) error {
	header := []string{"service_id", "sunday", "monday", "tuesday", "wednesday", "thursday", "friday", "saturday"}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, s := range f.Services {
		rec := make([]string, 8)
		rec[0] = string(s.ID)
		for d := 0; d < 7; d++ {
			if s.Weekdays[d] {
				rec[d+1] = "1"
			} else {
				rec[d+1] = "0"
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
