package access

import (
	"math"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/router"
	"accessquery/internal/synth"
	"accessquery/internal/todam"
)

func TestClassify(t *testing.T) {
	// Means: MAC 20, ACSD 5.
	mac := []float64{10, 10, 30, 30}
	acsd := []float64{2, 8, 8, 2}
	classes, err := Classify(mac, acsd)
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{ClassBest, ClassMostlyGood, ClassMostlyBad, ClassWorst}
	for i := range want {
		if classes[i] != want[i] {
			t.Errorf("zone %d class = %v, want %v", i, classes[i], want[i])
		}
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, err := Classify([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	classes, err := Classify(nil, nil)
	if err != nil || classes != nil {
		t.Error("empty input should give nil, nil")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassBest: "best", ClassMostlyGood: "mostly good",
		ClassMostlyBad: "mostly bad", ClassWorst: "worst",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestCostKindString(t *testing.T) {
	if JourneyTime.String() != "JT" || Generalized.String() != "GAC" {
		t.Error("CostKind names wrong")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal values Jain = %v, want 1", got)
	}
	// One user hogs everything: index -> 1/n.
	got := JainIndex([]float64{10, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("maximally unfair Jain = %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 {
		t.Error("empty Jain should be 0")
	}
	if JainIndex([]float64{0, 0}) != 0 {
		t.Error("all-zero Jain should be 0")
	}
	// Jain is scale-invariant.
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	if math.Abs(JainIndex(a)-JainIndex(b)) > 1e-12 {
		t.Error("Jain should be scale invariant")
	}
}

func TestWeightedJainIndex(t *testing.T) {
	// Equal weights reduce to the unweighted index.
	v := []float64{1, 2, 3}
	w := []float64{1, 1, 1}
	got, err := WeightedJainIndex(v, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-JainIndex(v)) > 1e-12 {
		t.Errorf("weighted(1) = %v, unweighted = %v", got, JainIndex(v))
	}
	// Zero weight removes the outlier entirely.
	v2 := []float64{5, 5, 100}
	w2 := []float64{1, 1, 0}
	got, err = WeightedJainIndex(v2, w2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("outlier-suppressed Jain = %v, want 1", got)
	}
	if _, err := WeightedJainIndex(v, w[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := WeightedJainIndex(v, []float64{1, -1, 1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := WeightedJainIndex([]float64{0}, []float64{1}); err == nil {
		t.Error("all-zero values should fail")
	}
}

// labeledWorld builds a small synthetic city with a TODAM and a labeler over
// vaccination centers.
func labeledWorld(t testing.TB, kind CostKind) (*synth.City, *Labeler) {
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
	if err != nil {
		t.Fatal(err)
	}
	ix := gtfs.NewIndex(c.Feed, time.Tuesday)
	r, err := router.New(c.Road, ix, c.StopNode, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	zonePts := make([]geo.Point, len(c.Zones))
	for i, z := range c.Zones {
		zonePts[i] = z.Centroid
	}
	pois := c.POIs[synth.POIVaxCenter]
	poiPts := make([]geo.Point, len(pois))
	poiNodes := make([]graph.NodeID, len(pois))
	for j, p := range pois {
		poiPts[j] = p.Point
		poiNodes[j] = c.Road.NearestNode(p.Point)
	}
	m, err := todam.Build(todam.Spec{
		ZonePts: zonePts, POIPts: poiPts,
		Interval:       gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday},
		SamplesPerHour: 10,
		Attractiveness: todam.DefaultAttractiveness(),
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &Labeler{
		Router: r, Matrix: m, ZoneNode: c.ZoneNode, POINode: poiNodes,
		Cost: kind, Params: router.DefaultCostParams(),
	}
}

func TestLabelZoneJT(t *testing.T) {
	_, l := labeledWorld(t, JourneyTime)
	m, ok, err := l.LabelZone(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("zone 0 has no reachable trips in this draw")
	}
	if m.MAC <= 0 {
		t.Errorf("MAC = %v, want positive journey time", m.MAC)
	}
	if m.ACSD < 0 {
		t.Errorf("ACSD = %v", m.ACSD)
	}
	sampled := 0
	for _, pt := range l.Matrix.Row(0) {
		sampled += len(pt.Times)
	}
	if m.Trips <= 0 || m.Trips > sampled {
		t.Errorf("trips = %d, sampled %d", m.Trips, sampled)
	}
	if m.WalkOnlyShare < 0 || m.WalkOnlyShare > 1 {
		t.Errorf("walk-only share = %v", m.WalkOnlyShare)
	}
	if l.SPQs == 0 {
		t.Error("SPQ counter not incremented")
	}
}

func TestLabelZoneGACExceedsJT(t *testing.T) {
	// GAC includes fares and weighted walking, so zone MAC under GAC should
	// be at least the JT MAC for the same trips.
	_, lJT := labeledWorld(t, JourneyTime)
	_, lGAC := labeledWorld(t, Generalized)
	for zone := 0; zone < 5; zone++ {
		mJT, ok1, err := lJT.LabelZone(zone)
		if err != nil {
			t.Fatal(err)
		}
		mGAC, ok2, err := lGAC.LabelZone(zone)
		if err != nil {
			t.Fatal(err)
		}
		if !ok1 || !ok2 {
			continue
		}
		if mGAC.MAC < mJT.MAC {
			t.Errorf("zone %d GAC MAC %v < JT MAC %v", zone, mGAC.MAC, mJT.MAC)
		}
	}
}

func TestLabelZoneOutOfRange(t *testing.T) {
	_, l := labeledWorld(t, JourneyTime)
	if _, _, err := l.LabelZone(-1); err == nil {
		t.Error("negative zone should fail")
	}
	if _, _, err := l.LabelZone(10_000); err == nil {
		t.Error("out-of-range zone should fail")
	}
}

func TestLabelZoneDeterministic(t *testing.T) {
	_, l1 := labeledWorld(t, JourneyTime)
	_, l2 := labeledWorld(t, JourneyTime)
	m1, ok1, err := l1.LabelZone(3)
	if err != nil {
		t.Fatal(err)
	}
	m2, ok2, err := l2.LabelZone(3)
	if err != nil {
		t.Fatal(err)
	}
	if ok1 != ok2 || m1.MAC != m2.MAC || m1.ACSD != m2.ACSD {
		t.Errorf("labeling not deterministic: %+v vs %+v", m1, m2)
	}
}

func TestLabelZonePairs(t *testing.T) {
	_, l := labeledWorld(t, JourneyTime)
	pairs, err := l.LabelZonePairs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Skip("zone 0 has no priceable pairs in this draw")
	}
	for i, pm := range pairs {
		if pm.Mean <= 0 {
			t.Errorf("pair %d mean = %f", i, pm.Mean)
		}
		if pm.Trips <= 0 {
			t.Errorf("pair %d trips = %d", i, pm.Trips)
		}
		if pm.Alpha <= 0 || pm.Alpha > 1 {
			t.Errorf("pair %d alpha = %f", i, pm.Alpha)
		}
		if i > 0 && pairs[i].POI <= pairs[i-1].POI {
			t.Error("pairs not sorted by POI")
		}
	}
}

func TestLabelZonePairsConsistentWithZoneLevel(t *testing.T) {
	// The alpha-weighted... rather trip-weighted mean of pair means must
	// equal the zone MAC when weighted by trip counts.
	_, l1 := labeledWorld(t, JourneyTime)
	_, l2 := labeledWorld(t, JourneyTime)
	zm, ok, err := l1.LabelZone(2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("zone 2 unlabelable")
	}
	pairs, err := l2.LabelZonePairs(2)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for _, pm := range pairs {
		sum += pm.Mean * float64(pm.Trips)
		n += pm.Trips
	}
	if n != zm.Trips {
		t.Fatalf("trip counts differ: %d vs %d", n, zm.Trips)
	}
	if math.Abs(sum/float64(n)-zm.MAC) > 1e-6 {
		t.Errorf("trip-weighted pair mean %f != zone MAC %f", sum/float64(n), zm.MAC)
	}
}

func TestLabelZonePairsOutOfRange(t *testing.T) {
	_, l := labeledWorld(t, JourneyTime)
	if _, err := l.LabelZonePairs(-1); err == nil {
		t.Error("negative zone should fail")
	}
	if _, err := l.LabelZonePairs(99999); err == nil {
		t.Error("out-of-range zone should fail")
	}
}

func BenchmarkLabelZone(b *testing.B) {
	_, l := labeledWorld(b, Generalized)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.LabelZone(i % len(l.ZoneNode)); err != nil {
			b.Fatal(err)
		}
	}
}
