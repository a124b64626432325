package experiments

import (
	"bytes"
	"strings"
	"testing"

	"accessquery/internal/core"
	"accessquery/internal/synth"
)

// testSuite returns a small, fast suite shared by the tests: tiny cities,
// two budgets, two models.
var shared *Suite

func testSuite(t testing.TB) *Suite {
	if shared != nil {
		return shared
	}
	s := NewSuite(0.05)
	s.Budgets = []float64{0.10, 0.30}
	s.Models = []core.ModelKind{core.ModelOLS, core.ModelMLP}
	s.SamplesPerHour = 6
	shared = s
	return s
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Table 1 in -short mode")
	}
	s := testSuite(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.City+"/"+string(r.Category)] = r
		if r.Gravity > r.Full {
			t.Errorf("%s/%s gravity %d exceeds full %d", r.City, r.Category, r.Gravity, r.Full)
		}
		if r.Reduction < 0 || r.Reduction > 100 {
			t.Errorf("%s/%s reduction %f out of range", r.City, r.Category, r.Reduction)
		}
	}
	// Paper shape assertions.
	bs := byKey["Birmingham/school"]
	if bs.Reduction < 95 {
		t.Errorf("Birmingham school reduction %.1f, paper reports 97.9", bs.Reduction)
	}
	if bs.Full < 160_000_000 {
		t.Errorf("Birmingham school full matrix %d, paper reports ~169M", bs.Full)
	}
	cj := byKey["Coventry/job_center"]
	if cj.Reduction != 0 {
		t.Errorf("Coventry job centers reduction %.1f, paper reports 0.0", cj.Reduction)
	}
	// School reduces more than job centers in both cities.
	for _, city := range []string{"Birmingham", "Coventry"} {
		if byKey[city+"/school"].Reduction <= byKey[city+"/job_center"].Reduction {
			t.Errorf("%s school should reduce more than job centers", city)
		}
	}
	// Larger city reduces more on average (more POIs per category).
	var bSum, cSum float64
	for _, cat := range synth.AllCategories {
		bSum += byKey["Birmingham/"+string(cat)].Reduction
		cSum += byKey["Coventry/"+string(cat)].Reduction
	}
	if bSum <= cSum {
		t.Errorf("Birmingham mean reduction (%.1f) should exceed Coventry (%.1f)", bSum/4, cSum/4)
	}
}

func TestPrintTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Table 1 in -short mode")
	}
	s := testSuite(t)
	var buf bytes.Buffer
	if err := s.PrintTable1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Birmingham", "Coventry", "school", "job_center"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTable2SavingsGrowAsBudgetShrinks(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		// SPQ workload scales with the budget: 10% budget must use fewer
		// SPQs than 30%.
		if r.SolutionSPQs[0.10] >= r.SolutionSPQs[0.30] {
			t.Errorf("%s/%s: SPQs at 10%% (%d) >= at 30%% (%d)",
				r.City, r.Category, r.SolutionSPQs[0.10], r.SolutionSPQs[0.30])
		}
		if r.SolutionSPQs[0.30] >= r.NaiveSPQs {
			t.Errorf("%s/%s: SSR SPQs (%d) >= naive (%d)",
				r.City, r.Category, r.SolutionSPQs[0.30], r.NaiveSPQs)
		}
		// At a 10% budget the SPQ saving should be large (paper: >90%).
		ratio := float64(r.SolutionSPQs[0.10]) / float64(r.NaiveSPQs)
		if ratio > 0.25 {
			t.Errorf("%s/%s: SPQ ratio %.2f at 10%% budget", r.City, r.Category, ratio)
		}
	}
	var buf bytes.Buffer
	if err := s.PrintTable2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table II") {
		t.Error("print output missing banner")
	}
}

func TestFig3ProducesAllCells(t *testing.T) {
	s := testSuite(t)
	cells, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// 2 cities x 4 POI x models x budgets.
	want := 2 * 4 * len(s.Models) * len(s.Budgets)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.MAEMinutes < 0 {
			t.Errorf("%s/%s/%s@%.2f MAE = %f", c.City, c.Category, c.Model, c.Budget, c.MAEMinutes)
		}
	}
	var buf bytes.Buffer
	if err := s.PrintFig3(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 3") {
		t.Error("print output missing banner")
	}
}

func TestFig4MetricsInRange(t *testing.T) {
	s := testSuite(t)
	cells, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(s.Models) * len(s.Budgets)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.MACCorr < -1 || c.MACCorr > 1 || c.ACSDCorr < -1 || c.ACSDCorr > 1 {
			t.Errorf("correlation out of range: %+v", c)
		}
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Errorf("accuracy out of range: %+v", c)
		}
		if c.FIE < 0 || c.FIE > 1 {
			t.Errorf("FIE out of range: %+v", c)
		}
	}
	var buf bytes.Buffer
	if err := s.PrintFig4(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 4") {
		t.Error("print output missing banner")
	}
}

func TestFig5RendersMaps(t *testing.T) {
	s := testSuite(t)
	maps, err := s.Fig5(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 2 {
		t.Fatalf("got %d maps", len(maps))
	}
	for _, m := range maps {
		var filled int
		for _, row := range m.Grid {
			for _, v := range row {
				if v == v { // not NaN
					filled++
				}
			}
		}
		if filled == 0 {
			t.Errorf("%s map empty", m.City)
		}
	}
	var buf bytes.Buffer
	if err := s.PrintFig5(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Error("print output missing banner")
	}
	buf.Reset()
	if err := s.WriteFig5CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "city,budget,y,x,mac_minutes") {
		t.Error("CSV header missing")
	}
}

func TestAblationsRun(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	if err := s.PrintAblations(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gravity vs uniform", "hop-tree features", "SPQ latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestAblationSampling(t *testing.T) {
	s := testSuite(t)
	rows, err := s.AblationSampling(0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d strategies", len(rows))
	}
	for _, r := range rows {
		if r.MAEMinutes < 0 {
			t.Errorf("%s MAE = %f", r.Strategy, r.MAEMinutes)
		}
		if r.MACCorr < -1 || r.MACCorr > 1 {
			t.Errorf("%s corr = %f", r.Strategy, r.MACCorr)
		}
	}
}

func TestAblationAggregation(t *testing.T) {
	s := testSuite(t)
	row, err := s.AblationAggregation()
	if err != nil {
		t.Fatal(err)
	}
	if row.OriginFeatures <= 0 || row.ODFeatures <= 0 {
		t.Errorf("non-positive feature durations: %+v", row)
	}
	if row.OriginTotal <= 0 || row.ODTotal <= 0 {
		t.Errorf("non-positive query durations: %+v", row)
	}
	if row.ODRows <= 0 {
		t.Errorf("no OD rows counted")
	}
	if row.OriginMAEMins < 0 || row.ODMAEMins < 0 {
		t.Errorf("negative MAE: %+v", row)
	}
	var buf bytes.Buffer
	if err := s.PrintAblations2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sampling") {
		t.Error("ablation2 output missing")
	}
}

func TestTemporalSweep(t *testing.T) {
	s := testSuite(t)
	cells, _, err := s.temporalWithCube()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d intervals", len(cells))
	}
	for _, c := range cells {
		if c.MeanMACMinutes <= 0 {
			t.Errorf("%s: mean MAC %f", c.Interval.Label, c.MeanMACMinutes)
		}
		if c.Fairness <= 0 || c.Fairness > 1 {
			t.Errorf("%s: fairness %f", c.Interval.Label, c.Fairness)
		}
	}
	// Evening service is sparser than the peaks in the synthetic
	// timetables, so evening access should not beat the AM peak.
	am, evening := cells[0], cells[3]
	if evening.MeanMACMinutes < am.MeanMACMinutes*0.9 {
		t.Errorf("evening mean (%f) implausibly better than AM peak (%f)",
			evening.MeanMACMinutes, am.MeanMACMinutes)
	}
	var buf bytes.Buffer
	if err := s.PrintTemporal(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Temporal") {
		t.Error("output missing banner")
	}
}

func TestCSVExports(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	if err := s.WriteFig3CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "city,category,model,budget,mae_minutes") {
		t.Error("fig3 CSV header wrong")
	}
	lines := strings.Count(buf.String(), "\n")
	want := 2*4*len(s.Models)*len(s.Budgets) + 1
	if lines != want {
		t.Errorf("fig3 CSV has %d lines, want %d", lines, want)
	}
	buf.Reset()
	if err := s.WriteFig4CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "city,model,budget,mac_corr") {
		t.Error("fig4 CSV header wrong")
	}
}

func TestExtensionComparison(t *testing.T) {
	s := testSuite(t)
	rows, err := s.ExtensionComparison(0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := len(s.Models) + len(core.ExtensionModels)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	seen := map[core.ModelKind]bool{}
	for _, r := range rows {
		if r.MAEMinutes < 0 {
			t.Errorf("%s MAE = %f", r.Model, r.MAEMinutes)
		}
		seen[r.Model] = true
	}
	for _, m := range core.ExtensionModels {
		if !seen[m] {
			t.Errorf("extension model %s missing", m)
		}
	}
	var buf bytes.Buffer
	if err := s.PrintExtensionComparison(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "KRR") {
		t.Error("print output missing KRR")
	}
}

func TestSPQLatency(t *testing.T) {
	s := testSuite(t)
	mean, std, err := s.SPQLatency(20)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 {
		t.Errorf("mean latency %v", mean)
	}
	if std < 0 {
		t.Errorf("std %v", std)
	}
}
