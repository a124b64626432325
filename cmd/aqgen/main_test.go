package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

func TestPresetConfig(t *testing.T) {
	cfg, err := presetConfig("birmingham", 1, 0)
	if err != nil || cfg.Zones != 3217 {
		t.Errorf("birmingham: %+v err=%v", cfg, err)
	}
	cfg, err = presetConfig("Coventry", 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 99 {
		t.Errorf("seed override failed: %d", cfg.Seed)
	}
	if cfg.Zones >= 1014 {
		t.Errorf("scaling failed: %d zones", cfg.Zones)
	}
	if _, err := presetConfig("atlantis", 1, 0); err == nil {
		t.Error("unknown city should fail")
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg, err := presetConfig("coventry", 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(cfg, dir, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"config.json", "zones.json", "pois.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	// The GTFS stop_times.txt holds one row per stop time of the generated
	// feed and names every trip.
	city, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(filepath.Join(dir, "gtfs", gtfs.FileStopTimes))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	rows, err := csv.NewReader(fh).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	trips := make(map[string]bool)
	for _, tr := range city.Feed.Trips {
		want += len(tr.StopTimes)
		trips[string(tr.ID)] = false
	}
	if want == 0 || len(rows) != want+1 {
		t.Fatalf("stop_times.txt has %d rows after its header, the feed %d stop times", len(rows)-1, want)
	}
	for _, row := range rows[1:] {
		if _, ok := trips[row[0]]; !ok {
			t.Fatalf("stop_times.txt names unknown trip %q", row[0])
		}
		trips[row[0]] = true
	}
	for id, seen := range trips {
		if !seen {
			t.Errorf("trip %s has no row in stop_times.txt", id)
		}
	}
}
