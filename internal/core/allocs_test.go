package core

import (
	"testing"

	"accessquery/internal/access"
	"accessquery/internal/synth"
)

// TestWarmRunAllocationsAndPairTable pins what a cold query costs once its
// category has been asked before, at the size and settings the repository
// benchmark uses (253 zones, schools, β = 0.05, MLP): the bounded,
// pooled-arena oracle and the pair table leave at most 60,000 allocations
// (1.78 M before either), and a query with a never-seen seed computes no
// pair vector at all — every row comes out of the generation's table.
func TestWarmRunAllocationsAndPairTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 253-zone engine")
	}
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, EngineOptions{Interval: benchInterval()})
	if err != nil {
		t.Fatal(err)
	}
	e.WarmFeatureCaches(1)
	q := Query{
		POIs: POIsOf(c, synth.POISchool), Cost: access.JourneyTime,
		Budget: 0.05, Model: ModelMLP, SamplesPerHour: 30, Seed: 1,
	}
	if _, err := e.Run(q); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := e.extractor.CacheStats()
	allocs := testing.AllocsPerRun(1, func() {
		q.Seed++
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm run: %.0f allocations", allocs)
	if allocs > 60000 {
		t.Errorf("warm run: %.0f allocations, want <= 60000", allocs)
	}
	hits1, misses1 := e.extractor.CacheStats()
	if misses1 != misses0 || hits1 == hits0 {
		t.Errorf("warm runs: %d feature-cache misses and %d hits; want every row served from the pair table",
			misses1-misses0, hits1-hits0)
	}
}
