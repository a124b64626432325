package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

// benchCity is larger than the equality-test city so the per-zone Dijkstra
// and tree builds dominate over pool bookkeeping and the speedup at 4
// workers is visible.
func benchCity(b *testing.B) *synth.City {
	b.Helper()
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.2))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchInterval() gtfs.Interval {
	return gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "AM peak"}
}

// BenchmarkNewEngine measures the offline prep phase (zone isochrones,
// hop-tree forest, spatial indexes) at different pool sizes. The acceptance
// target for this PR is >=2x at workers=4 vs workers=1.
func BenchmarkNewEngine(b *testing.B) {
	city := benchCity(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewEngine(city, EngineOptions{Interval: benchInterval(), Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRun measures the online query path. Allocations per op are
// part of the acceptance criteria: hoisting the road/zone KD-trees out of
// buildMatrix must show up as a drop versus rebuilding them per query.
func BenchmarkEngineRun(b *testing.B) {
	city := benchCity(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, err := NewEngine(city, EngineOptions{Interval: benchInterval(), Parallelism: workers})
			if err != nil {
				b.Fatal(err)
			}
			q := Query{
				POIs:           POIsOf(city, synth.POISchool),
				Budget:         0.1,
				Model:          ModelOLS,
				SamplesPerHour: 6,
				Workers:        workers,
				Parallelism:    workers,
				Seed:           1,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRunWarmBank measures the repeat-query path the label bank
// targets: the same query against a segment warmed by one prior run, so
// every trip drains instead of pricing. bank=false re-runs the identical
// shape without a bank as the in-benchmark baseline; the delta is the SPQ
// savings as wall-clock.
func BenchmarkEngineRunWarmBank(b *testing.B) {
	city := benchCity(b)
	e, err := NewEngine(city, EngineOptions{Interval: benchInterval(), Parallelism: 4})
	if err != nil {
		b.Fatal(err)
	}
	q := Query{
		POIs:           POIsOf(city, synth.POISchool),
		Budget:         0.1,
		Model:          ModelOLS,
		SamplesPerHour: 6,
		Workers:        4,
		Parallelism:    4,
		Seed:           1,
	}
	for _, banked := range []bool{false, true} {
		b.Run(fmt.Sprintf("bank=%v", banked), func(b *testing.B) {
			qq := q
			if banked {
				qq.Bank = bank.New(bank.Config{}).Segment(city.Name, 1)
				if _, err := e.Run(qq); err != nil { // warm the segment
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(qq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadEngine measures cold-start snapshot decoding: sections are
// checksum-verified and aliased straight out of the mapping. It isolates
// the decode step — city regeneration would only dilute it.
func BenchmarkLoadEngine(b *testing.B) {
	city := benchCity(b)
	e, err := NewEngine(city, EngineOptions{Interval: benchInterval(), Parallelism: 4})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "engine.snap")
	if err := e.SaveSnapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := readSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}
