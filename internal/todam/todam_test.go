package todam

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

var base = geo.Point{Lat: 52.45, Lon: -1.9}

// ZoneTripCount returns the number of sampled trips originating at zone.
func (m *Matrix) ZoneTripCount(zone int) int {
	var n int
	for _, pt := range m.Row(zone) {
		n += len(pt.Times)
	}
	return n
}

// POIs returns |P|.
func (m *Matrix) POIs() int { return len(m.Spec.POIPts) }

// scores is the attractiveness row Build computes, on a fresh scorer.
func scores(a Attractiveness, zone geo.Point, pois []geo.Point) []float64 {
	var s scorer
	return s.scores(a, zone, pois)
}

func amPeak() gtfs.Interval {
	return gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday}
}

func TestAttractivenessScores(t *testing.T) {
	a := Attractiveness{DecayMeters: 1000, Cutoff: 0.05}
	pois := []geo.Point{
		geo.Offset(base, 500, 0),  // near
		geo.Offset(base, 3000, 0), // mid
		geo.Offset(base, 9000, 0), // far
	}
	s := scores(a, base, pois)
	if len(s) != 3 {
		t.Fatalf("got %d scores", len(s))
	}
	if s[0] != 1 {
		t.Errorf("nearest POI should be max-normalized to 1, got %f", s[0])
	}
	if s[1] <= 0 || s[1] >= s[0] {
		t.Errorf("mid POI score %f out of order", s[1])
	}
	// exp(-9000/1000)/exp(-500/1000) ~ 2e-4 < cutoff.
	if s[2] != 0 {
		t.Errorf("far POI should be cut off, got %f", s[2])
	}
}

func TestAttractivenessMonotoneInDistance(t *testing.T) {
	a := DefaultAttractiveness()
	pois := make([]geo.Point, 10)
	for i := range pois {
		pois[i] = geo.Offset(base, float64(i+1)*400, 0)
	}
	s := scores(a, base, pois)
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			t.Errorf("score increased with distance at %d: %f > %f", i, s[i], s[i-1])
		}
	}
}

func TestAttractivenessEmpty(t *testing.T) {
	if s := scores(DefaultAttractiveness(), base, nil); s != nil {
		t.Errorf("empty POI list should give nil, got %v", s)
	}
}

func TestSpecValidate(t *testing.T) {
	valid := Spec{
		ZonePts: []geo.Point{base}, POIPts: []geo.Point{base},
		Interval: amPeak(), SamplesPerHour: 30,
		Attractiveness: DefaultAttractiveness(),
	}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{POIPts: valid.POIPts, Interval: valid.Interval, SamplesPerHour: 30},
		{ZonePts: valid.ZonePts, Interval: valid.Interval, SamplesPerHour: 30},
		{ZonePts: valid.ZonePts, POIPts: valid.POIPts, Interval: valid.Interval},
		{ZonePts: valid.ZonePts, POIPts: valid.POIPts, SamplesPerHour: 30,
			Interval: gtfs.Interval{Start: 9 * 3600, End: 7 * 3600}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestFullSize(t *testing.T) {
	s := Spec{
		ZonePts:        make([]geo.Point, 100),
		POIPts:         make([]geo.Point, 20),
		Interval:       amPeak(), // 2 hours
		SamplesPerHour: 30,
	}
	// |R| = 60, so |M_f| = 100*20*60.
	if got := s.FullSize(); got != 100*20*60 {
		t.Errorf("FullSize = %d, want %d", got, 100*20*60)
	}
}

func buildSmall(t *testing.T) *Matrix {
	t.Helper()
	zones := make([]geo.Point, 50)
	for i := range zones {
		zones[i] = geo.Offset(base, float64(i%10)*800, float64(i/10)*800)
	}
	pois := make([]geo.Point, 8)
	for j := range pois {
		pois[j] = geo.Offset(base, float64(j)*1200, 2000)
	}
	m, err := Build(Spec{
		ZonePts: zones, POIPts: pois, Interval: amPeak(),
		SamplesPerHour: 30, Attractiveness: DefaultAttractiveness(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildBasicInvariants(t *testing.T) {
	m := buildSmall(t)
	if m.Zones() != 50 || m.POIs() != 8 {
		t.Fatalf("dims %dx%d", m.Zones(), m.POIs())
	}
	if len(m.StartTimes) != 60 {
		t.Fatalf("|R| = %d, want 60", len(m.StartTimes))
	}
	for i, ts := range m.StartTimes {
		if ts < m.Spec.Interval.Start || ts >= m.Spec.Interval.End {
			t.Errorf("start time %v outside interval", ts)
		}
		if i > 0 && ts < m.StartTimes[i-1] {
			t.Error("start times not sorted")
		}
	}
	if m.Size() <= 0 || m.Size() > m.FullSize() {
		t.Errorf("size %d out of range (full %d)", m.Size(), m.FullSize())
	}
	if r := m.Reduction(); r < 0 || r > 100 {
		t.Errorf("reduction %f out of range", r)
	}
	// Size accounting agrees with per-zone counts.
	var total int
	for z := 0; z < m.Zones(); z++ {
		total += m.ZoneTripCount(z)
	}
	if int64(total) != m.Size() {
		t.Errorf("per-zone total %d != size %d", total, m.Size())
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := buildSmall(t), buildSmall(t)
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for z := 0; z < a.Zones(); z++ {
		ra, rb := a.Row(z), b.Row(z)
		if len(ra) != len(rb) {
			t.Fatalf("zone %d row lengths differ", z)
		}
		for i := range ra {
			if ra[i].POI != rb[i].POI || len(ra[i].Times) != len(rb[i].Times) {
				t.Fatalf("zone %d pair %d differs", z, i)
			}
		}
	}
}

func TestTripsProportionalToAlpha(t *testing.T) {
	// One zone, two POIs: near (alpha 1) and one at a controlled distance.
	zones := []geo.Point{base}
	pois := []geo.Point{
		geo.Offset(base, 100, 0),
		geo.Offset(base, 2600, 0),
	}
	att := Attractiveness{DecayMeters: 1800, Cutoff: 0.01}
	m, err := Build(Spec{
		ZonePts: zones, POIPts: pois, Interval: amPeak(),
		SamplesPerHour: 500, Attractiveness: att, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := m.Row(0)
	if len(row) != 2 {
		t.Fatalf("row size %d", len(row))
	}
	// Expected ratio = alpha2/alpha1 = exp(-2500/1800) ~ 0.25.
	n0, n1 := float64(len(row[0].Times)), float64(len(row[1].Times))
	wantRatio := row[1].Alpha / row[0].Alpha
	gotRatio := n1 / n0
	if math.Abs(gotRatio-wantRatio) > 0.08 {
		t.Errorf("trip ratio %f, want ~%f (alpha)", gotRatio, wantRatio)
	}
	// The near POI with alpha 1 samples every start time.
	if int(n0) != len(m.StartTimes) {
		t.Errorf("alpha=1 pair sampled %d of %d times", int(n0), len(m.StartTimes))
	}
}

func TestZeroAlphaPairsAbsent(t *testing.T) {
	zones := []geo.Point{base}
	pois := []geo.Point{
		geo.Offset(base, 100, 0),
		geo.Offset(base, 20000, 0), // hopeless
	}
	// Fixed (non-adaptive) decay zeroes the distant pair.
	att := Attractiveness{DecayMeters: 1800, Cutoff: 0.05}
	m, err := Build(Spec{
		ZonePts: zones, POIPts: pois, Interval: amPeak(),
		SamplesPerHour: 30, Attractiveness: att, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := m.Row(0)
	if len(row) != 1 || row[0].POI != 0 {
		t.Errorf("expected only near POI in row, got %+v", row)
	}
	if m.AssociatedPOIs(0) != 1 {
		t.Errorf("associated POIs = %d", m.AssociatedPOIs(0))
	}
}

func TestAdaptiveSmallCategoryFullyAttractive(t *testing.T) {
	// With AdaptiveK >= |P| every POI is fully attractive, reproducing the
	// 0.0% reduction for Coventry job centers in Table I.
	zones := []geo.Point{base, geo.Offset(base, 3000, 0)}
	pois := []geo.Point{
		geo.Offset(base, 500, 0),
		geo.Offset(base, 9000, 0),
	}
	m, err := Build(Spec{
		ZonePts: zones, POIPts: pois, Interval: amPeak(),
		SamplesPerHour: 30, Attractiveness: DefaultAttractiveness(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != m.FullSize() {
		t.Errorf("tiny category should sample fully: %d of %d", m.Size(), m.FullSize())
	}
	if m.Reduction() != 0 {
		t.Errorf("reduction = %f, want 0", m.Reduction())
	}
}

func TestAdaptiveBoundsAssociations(t *testing.T) {
	// With many POIs, each zone should associate with roughly AdaptiveK of
	// them, not all.
	zones := []geo.Point{base}
	pois := make([]geo.Point, 200)
	for j := range pois {
		pois[j] = geo.Offset(base, float64(j%20)*700, float64(j/20)*700)
	}
	att := DefaultAttractiveness()
	m, err := Build(Spec{
		ZonePts: zones, POIPts: pois, Interval: amPeak(),
		SamplesPerHour: 30, Attractiveness: att, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	assoc := m.AssociatedPOIs(0)
	if assoc < att.AdaptiveK/2 || assoc > att.AdaptiveK*3 {
		t.Errorf("zone associates with %d POIs, want around K=%d", assoc, att.AdaptiveK)
	}
}

func TestEachTrip(t *testing.T) {
	m := buildSmall(t)
	var n int
	m.EachTrip(3, func(tr Trip) {
		n++
		if tr.Zone != 3 {
			t.Errorf("trip zone %d", tr.Zone)
		}
		if tr.Start < m.Spec.Interval.Start || tr.Start >= m.Spec.Interval.End {
			t.Errorf("trip start %v outside interval", tr.Start)
		}
		if tr.Alpha <= 0 || tr.Alpha > 1 {
			t.Errorf("trip alpha %f", tr.Alpha)
		}
	})
	if n != m.ZoneTripCount(3) {
		t.Errorf("EachTrip visited %d, want %d", n, m.ZoneTripCount(3))
	}
}

// TestTripsByStartIsStableSortOfEachTrip: for every zone of a built matrix
// (one row emptied, plus both out-of-range neighbours) and of a matrix whose
// start times repeat, the start-ordered iteration equals EachTrip followed
// by a stable sort on Start; a warmed buffer allocates nothing.
func TestTripsByStartIsStableSortOfEachTrip(t *testing.T) {
	built := buildSmall(t)
	built.Rows[7] = nil
	repeated := &Matrix{
		StartTimes: []gtfs.Seconds{100, 100, 200, 300, 300, 300},
		Rows: [][]PairTrips{{
			{POI: 0, Alpha: 0.5, Times: []uint16{1, 3, 5}},
			{POI: 1, Alpha: 1, Times: []uint16{0, 2, 4}},
			{POI: 2, Alpha: 0.2, Times: []uint16{0, 5}},
		}},
	}
	var buf TripBuf
	for _, m := range []*Matrix{built, repeated} {
		for zone := -1; zone <= len(m.Rows); zone++ {
			var want []Trip
			m.EachTrip(zone, func(tr Trip) { want = append(want, tr) })
			slices.SortStableFunc(want, func(a, b Trip) int { return cmp.Compare(a.Start, b.Start) })
			got := m.TripsByStart(zone, &buf)
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("zone %d: TripsByStart = %+v, want %+v", zone, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for zone := range built.Rows {
			built.TripsByStart(zone, &buf)
		}
	}); allocs != 0 {
		t.Errorf("warmed TripsByStart: %.1f allocs per pass, want 0", allocs)
	}
}

func TestRowOutOfRange(t *testing.T) {
	m := buildSmall(t)
	if m.Row(-1) != nil || m.Row(1000) != nil {
		t.Error("out-of-range rows should be nil")
	}
	if m.ZoneTripCount(-1) != 0 {
		t.Error("out-of-range count should be 0")
	}
}

func TestBuildInvalidSpec(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Error("empty spec should fail")
	}
}

// TestTableIShape verifies the qualitative Table I effects on a scaled
// synthetic city: the large POI set (schools) reduces more than the small
// one (job centers), and a tiny POI set barely reduces at all.
func TestTableIShape(t *testing.T) {
	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.2))
	if err != nil {
		t.Fatal(err)
	}
	zonePts := make([]geo.Point, len(c.Zones))
	for i, z := range c.Zones {
		zonePts[i] = z.Centroid
	}
	reductions := make(map[synth.POICategory]float64)
	for _, cat := range synth.AllCategories {
		poiPts := make([]geo.Point, len(c.POIs[cat]))
		for j, p := range c.POIs[cat] {
			poiPts[j] = p.Point
		}
		m, err := Build(Spec{
			ZonePts: zonePts, POIPts: poiPts, Interval: amPeak(),
			SamplesPerHour: 30, Attractiveness: DefaultAttractiveness(), Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		reductions[cat] = m.Reduction()
	}
	if reductions[synth.POISchool] <= reductions[synth.POIJobCenter] {
		t.Errorf("school reduction (%f) should exceed job-center reduction (%f)",
			reductions[synth.POISchool], reductions[synth.POIJobCenter])
	}
	if reductions[synth.POISchool] < 50 {
		t.Errorf("school reduction %f suspiciously low", reductions[synth.POISchool])
	}
}

func TestMeanAssociatedPOIs(t *testing.T) {
	m := buildSmall(t)
	mean := m.MeanAssociatedPOIs()
	if mean <= 0 || mean > float64(m.POIs()) {
		t.Errorf("mean associated POIs = %f", mean)
	}
}

func BenchmarkBuildGravityMatrix(b *testing.B) {
	zones := make([]geo.Point, 500)
	for i := range zones {
		zones[i] = geo.Offset(base, float64(i%25)*500, float64(i/25)*500)
	}
	pois := make([]geo.Point, 50)
	for j := range pois {
		pois[j] = geo.Offset(base, float64(j%10)*1200, float64(j/10)*2500)
	}
	spec := Spec{
		ZonePts: zones, POIPts: pois, Interval: amPeak(),
		SamplesPerHour: 30, Attractiveness: DefaultAttractiveness(), Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}
