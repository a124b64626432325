package experiments

import (
	"fmt"
	"io"
	"time"

	"accessquery/internal/access"
	"accessquery/internal/core"
	"accessquery/internal/geo"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
	"accessquery/internal/todam"
)

// TemporalCell is citywide accessibility for one time interval — the
// temporal axis of the paper's motivating questions ("does the varying
// transit schedule restrict access at particular times of the day?").
type TemporalCell struct {
	Interval gtfs.Interval
	// MeanMACMinutes is the citywide mean journey time to the POI set.
	MeanMACMinutes float64
	// Fairness is Jain's index over zone MACs.
	Fairness float64
	// WorstZoneShare is the fraction of zones classified worst.
	WorstZoneShare float64
}

// Intervals returns the swept weekday intervals: AM peak, midday, PM peak,
// and evening.
func Intervals() []gtfs.Interval {
	day := time.Tuesday
	return []gtfs.Interval{
		{Start: 7 * 3600, End: 9 * 3600, Day: day, Label: "AM peak"},
		{Start: 11 * 3600, End: 13 * 3600, Day: day, Label: "midday"},
		{Start: 16 * 3600, End: 18 * 3600, Day: day, Label: "PM peak"},
		{Start: 20 * 3600, End: 22 * 3600, Day: day, Label: "evening"},
	}
}

// temporalWithCube sweeps the smaller city's hospital accessibility across
// intervals, rebuilding the interval-bound structures each time (the
// recomputation the SSR solution makes affordable).
func (s *Suite) temporalWithCube() ([]TemporalCell, *todam.Cube, error) {
	cfg := s.CityConfigs()[1]
	city, err := s.City(cfg)
	if err != nil {
		return nil, nil, err
	}
	zonePts := make([]geo.Point, len(city.Zones))
	for i, z := range city.Zones {
		zonePts[i] = z.Centroid
	}
	poiPts := poisOf(city, synth.POIHospital)
	cube, err := todam.BuildCube(todam.Spec{
		ZonePts: zonePts, POIPts: poiPts,
		SamplesPerHour: s.SamplesPerHour,
		Attractiveness: todam.DefaultAttractiveness(),
		Seed:           s.Seed,
	}, Intervals())
	if err != nil {
		return nil, nil, err
	}
	var cells []TemporalCell
	for _, iv := range Intervals() {
		engine, err := core.NewEngine(city, core.EngineOptions{Interval: iv, Parallelism: s.Parallelism})
		if err != nil {
			return nil, nil, err
		}
		res, err := engine.Run(core.Query{
			POIs:           poiPts,
			Cost:           access.JourneyTime,
			Model:          core.ModelMLP,
			Budget:         0.10,
			SamplesPerHour: s.SamplesPerHour,
			Seed:           s.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		var sum float64
		var n, worst int
		for i := range res.MAC {
			if !res.Valid[i] {
				continue
			}
			sum += res.MAC[i]
			n++
			if res.Classes[i] == access.ClassWorst {
				worst++
			}
		}
		cell := TemporalCell{Interval: iv, Fairness: res.Fairness}
		if n > 0 {
			cell.MeanMACMinutes = sum / float64(n) / 60
			cell.WorstZoneShare = float64(worst) / float64(n)
		}
		cells = append(cells, cell)
	}
	return cells, cube, nil
}

// PrintTemporal renders the interval sweep.
func (s *Suite) PrintTemporal(w io.Writer) error {
	cells, cube, err := s.temporalWithCube()
	if err != nil {
		return err
	}
	header(w, "Temporal sweep: hospital accessibility by time of day (smaller city)")
	fmt.Fprintf(w, "%-10s %12s %10s %12s\n", "interval", "mean JT min", "fairness", "worst share")
	for _, c := range cells {
		fmt.Fprintf(w, "%-10s %12.1f %10.3f %12.2f\n",
			c.Interval.Label, c.MeanMACMinutes, c.Fairness, c.WorstZoneShare)
	}
	fmt.Fprintf(w, "full temporal TODAM cube: %d trips across %d intervals (%.1f%% below the full cube)\n",
		cube.Size(), len(cube.Intervals), cube.Reduction())
	return nil
}
