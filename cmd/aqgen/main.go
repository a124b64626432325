// Command aqgen generates a synthetic city and writes it to disk: the GTFS
// timetable as CSV text files plus zones, POIs, and the generating
// configuration as JSON. The output is self-describing and deterministic in
// the seed, so a city can be regenerated or inspected with external tools.
//
// Usage:
//
//	aqgen -city birmingham -scale 0.25 -out ./data/bham25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"accessquery/internal/buildinfo"
	"accessquery/internal/obs"
	"accessquery/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aqgen: ")
	var (
		cityName = flag.String("city", "coventry", "city preset: birmingham or coventry")
		scale    = flag.Float64("scale", 1.0, "scale factor in (0, 1]")
		seed     = flag.Int64("seed", 0, "override the preset's seed (0 keeps it)")
		out      = flag.String("out", "", "output directory (required)")
		debug    = flag.String("debug-addr", "", "optional loopback listener for /metrics and /debug/pprof during generation")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "aqgen")
		return
	}
	buildinfo.Register()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *debug != "" {
		dbg, bound, err := obs.StartDebugServer(*debug, nil, nil)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoints (pprof, metrics) on http://%s", bound)
	}
	cfg, err := presetConfig(*cityName, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := run(cfg, *out, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// presetConfig resolves a preset name into a (possibly scaled, reseeded)
// configuration.
func presetConfig(name string, scale float64, seed int64) (synth.Config, error) {
	var cfg synth.Config
	switch strings.ToLower(name) {
	case "birmingham":
		cfg = synth.Birmingham()
	case "coventry":
		cfg = synth.Coventry()
	default:
		return synth.Config{}, fmt.Errorf("unknown city %q (want birmingham or coventry)", name)
	}
	if scale != 1.0 {
		cfg = synth.Scaled(cfg, scale)
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg, nil
}

// run generates the city and writes all artifacts to out.
func run(cfg synth.Config, out string, w io.Writer) error {
	city, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := city.Feed.WriteDir(filepath.Join(out, "gtfs")); err != nil {
		return err
	}
	writeJSON := func(name string, v interface{}) error {
		f, err := os.Create(filepath.Join(out, name))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeJSON("config.json", cfg); err != nil {
		return err
	}
	if err := writeJSON("zones.json", city.Zones); err != nil {
		return err
	}
	if err := writeJSON("pois.json", city.POIs); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d zones, %d stops, %d routes, %d trips, %d road nodes\n",
		out, len(city.Zones), len(city.Feed.Stops), len(city.Feed.Routes),
		len(city.Feed.Trips), city.Road.NumNodes())
	return nil
}
