package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"accessquery/internal/gtfs"
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
	// The GTFS directory round-trips through the reader.
	feed, err := gtfs.ReadDir(filepath.Join(dir, "gtfs"))
	if err != nil {
		t.Fatalf("GTFS output unreadable: %v", err)
	}
	if len(feed.Trips) == 0 {
		t.Error("GTFS output has no trips")
	}
}
