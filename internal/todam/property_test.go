package todam

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"accessquery/internal/geo"
)

// randomSpec builds a valid random spec from a seed.
func randomSpec(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	nz := 1 + rng.Intn(40)
	np := 1 + rng.Intn(25)
	zones := make([]geo.Point, nz)
	pois := make([]geo.Point, np)
	for i := range zones {
		zones[i] = geo.Offset(base, rng.Float64()*8000-4000, rng.Float64()*8000-4000)
	}
	for j := range pois {
		pois[j] = geo.Offset(base, rng.Float64()*8000-4000, rng.Float64()*8000-4000)
	}
	return Spec{
		ZonePts:        zones,
		POIPts:         pois,
		Interval:       amPeak(),
		SamplesPerHour: 1 + rng.Intn(30),
		Attractiveness: DefaultAttractiveness(),
		Seed:           seed,
	}
}

// TestMatrixInvariantsProperty checks the structural TODAM invariants over
// random configurations: size bounds, per-pair trip bounds, sorted start
// times inside the interval, and alpha range.
func TestMatrixInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		spec := randomSpec(seed)
		m, err := Build(spec)
		if err != nil {
			return false
		}
		if m.Size() < 0 || m.Size() > m.FullSize() {
			return false
		}
		nR := len(m.StartTimes)
		for i := 1; i < nR; i++ {
			if m.StartTimes[i] < m.StartTimes[i-1] {
				return false
			}
		}
		for _, ts := range m.StartTimes {
			if ts < spec.Interval.Start || ts >= spec.Interval.End {
				return false
			}
		}
		var total int64
		for z := 0; z < m.Zones(); z++ {
			for _, pt := range m.Row(z) {
				if pt.Alpha <= 0 || pt.Alpha > 1 {
					return false
				}
				if len(pt.Times) > nR {
					return false
				}
				for k := 1; k < len(pt.Times); k++ {
					if pt.Times[k] <= pt.Times[k-1] {
						return false // indices must be strictly increasing
					}
				}
				total += int64(len(pt.Times))
			}
		}
		return total == m.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReductionMonotoneInCutoffProperty: raising the cutoff can only shrink
// the gravity matrix's pair set. The sampled trip count shrinks only in
// expectation: a pair the cutoff removes no longer consumes random draws,
// so the pairs after it are sampled from a shifted stream.
func TestReductionMonotoneInCutoffProperty(t *testing.T) {
	pairs := func(m *Matrix) int {
		n := 0
		for z := 0; z < m.Zones(); z++ {
			n += m.AssociatedPOIs(z)
		}
		return n
	}
	f := func(seed int64) bool {
		spec := randomSpec(seed)
		spec.Attractiveness = Attractiveness{DecayMeters: 2000, Cutoff: 0.02}
		loose, err := Build(spec)
		if err != nil {
			return false
		}
		spec.Attractiveness.Cutoff = 0.3
		tight, err := Build(spec)
		if err != nil {
			return false
		}
		return pairs(tight) <= pairs(loose)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestScoresRangeProperty: attractiveness scores always lie in [0, 1] with
// at least one 1 when POIs exist (max normalization).
func TestScoresRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 1 + rng.Intn(60)
		pois := make([]geo.Point, np)
		for j := range pois {
			pois[j] = geo.Offset(base, rng.Float64()*20000-10000, rng.Float64()*20000-10000)
		}
		zone := geo.Offset(base, rng.Float64()*20000-10000, rng.Float64()*20000-10000)
		for _, att := range []Attractiveness{
			DefaultAttractiveness(),
			{DecayMeters: 500 + rng.Float64()*3000, Cutoff: rng.Float64() * 0.3},
		} {
			s := scores(att, zone, pois)
			if len(s) != np {
				return false
			}
			sawOne := false
			for _, v := range s {
				if v < 0 || v > 1 {
					return false
				}
				if v > 0.999999 {
					sawOne = true
				}
			}
			if !sawOne {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKthSmallestMatchesSort checks the in-place selection against the
// copy-and-sort it replaced, for every k, on inputs with ties, signed
// infinities and NaNs (which sort.Float64s orders first).
func TestKthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, 1, 2}
	for trial := 0; trial < 300; trial++ {
		v := make([]float64, 1+rng.Intn(60))
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = pool[rng.Intn(len(pool))]
			} else {
				v[i] = float64(rng.Intn(20)) * 250.5
			}
		}
		sorted := slices.Clone(v)
		sort.Float64s(sorted)
		for k := 1; k <= len(v); k++ {
			got, want := kthSmallest(slices.Clone(v), k), sorted[k-1]
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("k=%d of %v: got %v, want %v", k, v, got, want)
			}
		}
	}
}

// TestScorerReuseMatchesFresh checks that one scorer reused across zones
// and POI sets of different sizes, as Build reuses it, returns exactly
// what a fresh scorer returns each time.
func TestScorerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var reused scorer
	for trial := 0; trial < 200; trial++ {
		pois := make([]geo.Point, rng.Intn(40))
		for j := range pois {
			pois[j] = geo.Offset(base, rng.Float64()*20000-10000, rng.Float64()*20000-10000)
		}
		zone := geo.Offset(base, rng.Float64()*20000-10000, rng.Float64()*20000-10000)
		att := DefaultAttractiveness()
		if trial%2 == 1 {
			att = Attractiveness{DecayMeters: 500 + rng.Float64()*3000, Cutoff: rng.Float64() * 0.3}
		}
		got := slices.Clone(reused.scores(att, zone, pois))
		want := scores(att, zone, pois)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d scores, want %d", trial, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d POI %d: reused scorer gives %v, fresh %v", trial, j, got[j], want[j])
			}
		}
	}
}
