package main

import (
	"fmt"
	"io"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/core"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

// runBankBench measures the cross-query label bank on repeat and
// overlapping queries: the same engine answers a cold query, an exact
// repeat, and a higher-budget overlap, each with the bank attached, and
// the run reports how many SPQs the warm bank saved. Random sampling
// draws labeled sets as prefixes of one seeded permutation, so a
// higher-budget query's labeled set is a superset of a lower-budget one —
// the overlap case is the serving pattern the bank targets.
func runBankBench(w io.Writer, scale float64, parallelism int) error {
	city, err := synth.Generate(synth.Scaled(synth.Coventry(), scale))
	if err != nil {
		return err
	}
	engine, err := core.NewEngine(city, core.EngineOptions{
		Interval:    gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"},
		Parallelism: parallelism,
	})
	if err != nil {
		return err
	}
	seg := bank.New(bank.Config{}).Segment(city.Name, 0)
	pois := core.POIsOf(city, synth.POISchool)

	type row struct {
		name    string
		budget  float64
		spqs    int64
		drained int64
		elapsed time.Duration
	}
	runQ := func(name string, budget float64) (row, error) {
		q := core.Query{
			POIs: pois, Budget: budget, Model: core.ModelOLS,
			Seed: 42, Parallelism: parallelism, Bank: seg,
		}
		res, err := engine.Run(q)
		if err != nil {
			return row{}, err
		}
		return row{
			name: name, budget: budget, spqs: res.Timing.SPQs,
			drained: res.Timing.BankDrained, elapsed: res.Timing.Total(),
		}, nil
	}

	fmt.Fprintf(w, "\nLabel bank: repeat-query SPQ savings (%s, scale %.2f)\n", city.Name, scale)
	fmt.Fprintf(w, "%-28s %8s %8s %8s %10s\n", "query", "budget", "SPQs", "drained", "elapsed")
	cases := []struct {
		name   string
		budget float64
	}{
		{"cold (bank empty)", 0.15},
		{"repeat (same query)", 0.15},
		{"overlap (higher budget)", 0.30},
	}
	rows := make([]row, 0, len(cases))
	for _, c := range cases {
		r, err := runQ(c.name, c.budget)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, r)
		fmt.Fprintf(w, "%-28s %7.0f%% %8d %8d %10v\n",
			r.name, r.budget*100, r.spqs, r.drained, r.elapsed.Round(time.Millisecond))
	}
	cold, repeat, overlap := rows[0], rows[1], rows[2]
	fmt.Fprintf(w, "\nrepeat saves %d of %d SPQs", cold.spqs-repeat.spqs, cold.spqs)
	if repeat.spqs > 0 {
		fmt.Fprintf(w, " (%.1fx fewer)", float64(cold.spqs)/float64(repeat.spqs))
	} else {
		fmt.Fprintf(w, " (all of them)")
	}
	// The overlap query doubles the budget; without the bank it would price
	// roughly 2x the cold query's trips, so compare against its own cold
	// cost: drained + priced.
	overlapCold := overlap.spqs + overlap.drained
	fmt.Fprintf(w, "\noverlap prices %d of %d trips", overlap.spqs, overlapCold)
	if overlap.spqs > 0 {
		fmt.Fprintf(w, " (%.1fx fewer SPQs than cold)\n", float64(overlapCold)/float64(overlap.spqs))
	} else {
		fmt.Fprintf(w, "\n")
	}
	return nil
}
