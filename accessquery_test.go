package accessquery

import (
	"testing"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way the
// README quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	city, err := GenerateCity(ScaledConfig(CoventryConfig(), 0.08))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(city, EngineOptions{Interval: WeekdayAMPeak()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(Query{
		POIs:   POIsOf(city, POISchool),
		Cost:   CostJourneyTime,
		Budget: 0.15,
		Model:  ModelMLP,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness = %f", res.Fairness)
	}
	var valid int
	for i := range res.Valid {
		if res.Valid[i] {
			valid++
		}
	}
	if valid < len(city.Zones)/2 {
		t.Errorf("only %d of %d zones valid", valid, len(city.Zones))
	}
}

func TestPresetsMatchPaper(t *testing.T) {
	b := BirminghamConfig()
	c := CoventryConfig()
	if b.Zones != 3217 {
		t.Errorf("Birmingham zones = %d, paper says 3217", b.Zones)
	}
	if c.Zones != 1014 {
		t.Errorf("Coventry zones = %d, paper says 1014", c.Zones)
	}
	wantB := map[POICategory]int{POISchool: 874, POIHospital: 56, POIVaxCenter: 82, POIJobCenter: 20}
	for cat, n := range wantB {
		if b.POICounts[cat] != n {
			t.Errorf("Birmingham %s = %d, want %d", cat, b.POICounts[cat], n)
		}
	}
	wantC := map[POICategory]int{POISchool: 230, POIHospital: 6, POIVaxCenter: 22, POIJobCenter: 2}
	for cat, n := range wantC {
		if c.POICounts[cat] != n {
			t.Errorf("Coventry %s = %d, want %d", cat, c.POICounts[cat], n)
		}
	}
}

func TestIntervals(t *testing.T) {
	am := WeekdayAMPeak()
	if am.Start != 7*3600 || am.End != 9*3600 {
		t.Errorf("AM peak = %v", am)
	}
	pm := WeekdayPMPeak()
	if pm.Start != 16*3600 || pm.End != 18*3600 {
		t.Errorf("PM peak = %v", pm)
	}
}

func TestFairnessHelpers(t *testing.T) {
	if JainIndex([]float64{2, 2, 2}) != 1 {
		t.Error("equal values should be perfectly fair")
	}
	got, err := WeightedJainIndex([]float64{1, 2}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 1 {
		t.Errorf("weighted Jain = %f", got)
	}
}

func TestDefaultParams(t *testing.T) {
	cp := DefaultCostParams()
	if cp.LambdaInVehicle != 1.0 || cp.LambdaWait <= cp.LambdaInVehicle {
		t.Errorf("cost params wrong: %+v", cp)
	}
	att := DefaultAttractiveness()
	if att.Cutoff <= 0 || att.Cutoff >= 1 {
		t.Errorf("attractiveness cutoff = %f", att.Cutoff)
	}
}

func TestAllModelsAndCategoriesExported(t *testing.T) {
	if len(AllModels) != 5 {
		t.Errorf("AllModels has %d entries", len(AllModels))
	}
	if len(AllPOICategories) != 4 {
		t.Errorf("AllPOICategories has %d entries", len(AllPOICategories))
	}
}
