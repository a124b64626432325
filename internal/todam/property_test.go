package todam

import (
	"math/rand"
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
			s := att.Scores(zone, pois)
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
