// Package todam builds the Temporal Origin-Destination Access Matrix from
// Section III of the paper. The full matrix M_f enumerates a trip for every
// (zone, POI, start time) triple; the binary matrix M_b gates which trips
// survive into the gravity matrix M_g. Gating embeds the Hansen gravity
// model into construction: an attractiveness score α_ij — here a negative
// exponential distance-decay function, max-normalized per zone — sets the
// probability that each candidate start time is sampled for the pair, so
// low-attractiveness pairs contribute few or no trips and the downstream
// shortest-path workload shrinks by the Table I percentages before a single
// query runs.
package todam

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"accessquery/internal/geo"
	"accessquery/internal/gtfs"
)

// Attractiveness computes α_ij scores from zone-POI distances with a
// negative-exponential distance-decay function, max-normalized per zone so
// each zone's most attractive POI scores 1.
type Attractiveness struct {
	// DecayMeters is the decay length λ of exp(-d/λ) when AdaptiveK is
	// zero, and the decay floor otherwise.
	DecayMeters float64
	// Cutoff zeroes normalized scores below this threshold, creating the
	// α_ij = 0 entries that remove pairs entirely.
	Cutoff float64
	// AdaptiveK, when positive, calibrates the decay per zone so that
	// roughly the K nearest POIs survive the cutoff. This matches the
	// association behaviour behind the paper's Table I: zones associate
	// with a bounded set of nearby POIs however large the category is, and
	// with every POI when the category is tiny (Coventry job centers show
	// a 0.0% reduction).
	AdaptiveK int
}

// DefaultAttractiveness returns the adaptive decay used by the
// experiments.
func DefaultAttractiveness() Attractiveness {
	return Attractiveness{DecayMeters: 1500, Cutoff: 0.05, AdaptiveK: 18}
}

// scorer holds the per-zone buffers of the attractiveness row, so Build
// reuses them across zones instead of allocating three per zone.
type scorer struct {
	dists, sel, raw []float64
}

// scores computes a's attractiveness row for one zone against all POIs.
// The returned slice has one entry per POI in [0, 1]; entries below the
// cutoff are exactly 0. It is s's buffer, valid until the next call.
func (s *scorer) scores(a Attractiveness, zone geo.Point, pois []geo.Point) []float64 {
	if len(pois) == 0 {
		return nil
	}
	n := len(pois)
	s.dists = slices.Grow(s.dists[:0], n)[:n]
	dists := s.dists
	for j, p := range pois {
		dists[j] = geo.DistanceMeters(zone, p)
	}
	s.raw = slices.Grow(s.raw[:0], n)[:n]
	raw := s.raw
	lambda := a.DecayMeters
	dmin := 0.0
	if a.AdaptiveK > 0 {
		// Relative-distance decay calibrated so the k-th nearest POI sits
		// at the cutoff, with k = min(K, |P|). Truly tiny categories (a
		// city's two job centers) are fully attractive everywhere — people
		// must go wherever the service is — reproducing Table I's 0.0%
		// reduction for Coventry job centers.
		const flattenMax = 3
		dmin = minOf(dists)
		if len(pois) <= flattenMax {
			for j := range raw {
				raw[j] = 1
			}
			return raw
		}
		s.sel = append(s.sel[:0], dists...)
		dk := kthSmallest(s.sel, min(a.AdaptiveK, n))
		span := dk - dmin
		lambda = span / math.Log(1/a.Cutoff)
		if lambda < a.DecayMeters/10 {
			lambda = a.DecayMeters / 10
		}
	}
	maxRaw := 0.0
	for j := range raw {
		raw[j] = math.Exp(-(dists[j] - dmin) / lambda)
		if raw[j] > maxRaw {
			maxRaw = raw[j]
		}
	}
	if maxRaw == 0 {
		return raw
	}
	for j := range raw {
		raw[j] /= maxRaw
		if raw[j] < a.Cutoff {
			raw[j] = 0
		}
	}
	return raw
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// kthSmallest returns the k-th smallest value (1-indexed, 1 ≤ k ≤ len(v))
// of v in the order sort.Float64s uses, reordering v in place: Hoare's
// FIND, which partitions around the value at position k until that
// position holds its order statistic. The k-th order statistic is one
// value whatever the algorithm, so this returns what sorting would.
func kthSmallest(v []float64, k int) float64 {
	k--
	lo, hi := 0, len(v)-1
	for lo < hi {
		x := v[k]
		i, j := lo, hi
		for i <= j {
			for cmp.Less(v[i], x) {
				i++
			}
			for cmp.Less(x, v[j]) {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return v[k]
}

// Spec describes the TODAM to build.
type Spec struct {
	// ZonePts are zone centroids (origins).
	ZonePts []geo.Point
	// POIPts are destination points.
	POIPts []geo.Point
	// Interval is the time interval v the matrix covers.
	Interval gtfs.Interval
	// SamplesPerHour is the per-hour rate determining |R|.
	SamplesPerHour int
	// Attractiveness configures the gravity gate.
	Attractiveness Attractiveness
	// POIWeights, when non-nil, multiplies each POI's attractiveness score
	// before the sampling gate (indexed like POIPts). Effective scores are
	// clamped to [0, 1]; a pair whose weighted score drops to zero is
	// excluded entirely. Nil means every POI at weight 1.
	POIWeights []float64
	// ZoneWeights, when non-nil, scales each origin zone's attractiveness
	// the same way (indexed like ZonePts). Nil means every zone at 1.
	ZoneWeights []float64
	// Seed drives the start-time draw and per-pair sampling.
	Seed int64
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	if len(s.ZonePts) == 0 {
		return fmt.Errorf("todam: no zones")
	}
	if len(s.POIPts) == 0 {
		return fmt.Errorf("todam: no POIs")
	}
	if s.SamplesPerHour <= 0 {
		return fmt.Errorf("todam: non-positive sample rate %d", s.SamplesPerHour)
	}
	if s.Interval.End <= s.Interval.Start {
		return fmt.Errorf("todam: empty interval")
	}
	if s.POIWeights != nil && len(s.POIWeights) != len(s.POIPts) {
		return fmt.Errorf("todam: %d POI weights for %d POIs", len(s.POIWeights), len(s.POIPts))
	}
	if s.ZoneWeights != nil && len(s.ZoneWeights) != len(s.ZonePts) {
		return fmt.Errorf("todam: %d zone weights for %d zones", len(s.ZoneWeights), len(s.ZonePts))
	}
	return nil
}

// numStartTimes returns |R| for the spec.
func (s Spec) numStartTimes() int {
	hours := float64(s.Interval.Duration()) / 3600
	n := int(math.Round(hours * float64(s.SamplesPerHour)))
	if n < 1 {
		n = 1
	}
	return n
}

// FullSize returns |M_f| = |Z| x |P| x |R| without materializing anything.
func (s Spec) FullSize() int64 {
	return int64(len(s.ZonePts)) * int64(len(s.POIPts)) * int64(s.numStartTimes())
}

// PairTrips lists the sampled start times for one (zone, POI) pair as
// indices into Matrix.StartTimes.
type PairTrips struct {
	POI   int
	Alpha float64
	Times []uint16
}

// Matrix is a gravity-constructed TODAM M_g.
type Matrix struct {
	Spec Spec
	// StartTimes is R, sorted ascending.
	StartTimes []gtfs.Seconds
	// Rows holds, per zone, the pairs with at least one sampled trip plus
	// pairs with positive attractiveness (alpha recorded even when the draw
	// sampled zero trips, because feature aggregation weights by alpha).
	Rows [][]PairTrips
	// size is the total sampled trip count.
	size int64
}

// Build constructs M_g from the spec. It is deterministic in Spec.Seed.
func Build(spec Spec) (*Matrix, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	nR := spec.numStartTimes()
	times := make([]gtfs.Seconds, nR)
	span := int32(spec.Interval.Duration())
	for i := range times {
		times[i] = spec.Interval.Start + gtfs.Seconds(rng.Int31n(span))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	m := &Matrix{Spec: spec, StartTimes: times, Rows: make([][]PairTrips, len(spec.ZonePts))}
	var sc scorer
	for zi, zp := range spec.ZonePts {
		alpha := sc.scores(spec.Attractiveness, zp, spec.POIPts)
		zw := 1.0
		if spec.ZoneWeights != nil {
			zw = spec.ZoneWeights[zi]
		}
		var row []PairTrips
		for j, a := range alpha {
			// Scenario re-weighting scales the gravity score before the
			// gate; the weighted score must stay a probability, and pairs
			// weighted to zero fall out before any RNG draw so the stream
			// stays deterministic for the surviving pairs.
			a *= zw
			if spec.POIWeights != nil {
				a *= spec.POIWeights[j]
			}
			if a > 1 {
				a = 1
			}
			if a <= 0 {
				continue
			}
			pt := PairTrips{POI: j, Alpha: a}
			for ti := range times {
				if rng.Float64() < a {
					pt.Times = append(pt.Times, uint16(ti))
				}
			}
			m.size += int64(len(pt.Times))
			row = append(row, pt)
		}
		m.Rows[zi] = row
	}
	return m, nil
}

// Size returns |M_g|: the total number of sampled trips.
func (m *Matrix) Size() int64 { return m.size }

// FullSize returns |M_f| for the same spec.
func (m *Matrix) FullSize() int64 { return m.Spec.FullSize() }

// Reduction returns the percentage reduction of M_g against M_f, the
// quantity Table I reports.
func (m *Matrix) Reduction() float64 {
	full := m.FullSize()
	if full == 0 {
		return 0
	}
	return 100 * (1 - float64(m.size)/float64(full))
}

// Zones returns |Z|.
func (m *Matrix) Zones() int { return len(m.Spec.ZonePts) }

// Row returns the sampled pairs for a zone. The slice must not be modified.
func (m *Matrix) Row(zone int) []PairTrips {
	if zone < 0 || zone >= len(m.Rows) {
		return nil
	}
	return m.Rows[zone]
}

// AssociatedPOIs returns how many POIs have positive attractiveness for the
// zone (the "zone associates with k POIs" statistic from the paper's
// walkability discussion).
func (m *Matrix) AssociatedPOIs(zone int) int { return len(m.Row(zone)) }

// Trip identifies one TODAM entry: origin zone, destination POI, and start
// time.
type Trip struct {
	Zone  int
	POI   int
	Start gtfs.Seconds
	Alpha float64
}

// EachTrip calls fn for every sampled trip of a zone in deterministic
// order.
func (m *Matrix) EachTrip(zone int, fn func(Trip)) {
	for _, pt := range m.Row(zone) {
		for _, ti := range pt.Times {
			fn(Trip{Zone: zone, POI: pt.POI, Start: m.StartTimes[ti], Alpha: pt.Alpha})
		}
	}
}

// TripBuf is caller-owned scratch for TripsByStart. Reused, it stops
// allocating once it has grown to the largest zone it has served. The zero
// value is ready to use; a buffer serves one goroutine at a time.
type TripBuf struct {
	trips []Trip
	next  []int32 // per start index: the next output slot of its bucket
}

// TripsByStart returns the zone's sampled trips in ascending start order,
// trips with equal start times in EachTrip's order: EachTrip followed by a
// stable sort on Start. It sorts nothing. Trips are bucketed by start
// index, and an index whose time equals its predecessor's shares the
// predecessor's bucket (StartTimes is sorted, so equal times are
// adjacent). The result lives in buf and is valid until buf's next use.
func (m *Matrix) TripsByStart(zone int, buf *TripBuf) []Trip {
	row := m.Row(zone)
	next := slices.Grow(buf.next[:0], len(m.StartTimes))[:len(m.StartTimes)]
	clear(next)
	n := 0
	for _, pt := range row {
		for _, ti := range pt.Times {
			next[m.bucket(ti)]++
			n++
		}
	}
	// Counts become each bucket's first output slot.
	var slot int32
	for b, c := range next {
		next[b] = slot
		slot += c
	}
	trips := slices.Grow(buf.trips[:0], n)[:n]
	for _, pt := range row {
		for _, ti := range pt.Times {
			b := m.bucket(ti)
			trips[next[b]] = Trip{Zone: zone, POI: pt.POI, Start: m.StartTimes[ti], Alpha: pt.Alpha}
			next[b]++
		}
	}
	buf.trips, buf.next = trips, next
	return trips
}

// bucket returns the first start index whose time equals StartTimes[ti].
func (m *Matrix) bucket(ti uint16) int {
	b := int(ti)
	for b > 0 && m.StartTimes[b-1] == m.StartTimes[ti] {
		b--
	}
	return b
}

// MeanAssociatedPOIs averages AssociatedPOIs over all zones.
func (m *Matrix) MeanAssociatedPOIs() float64 {
	if m.Zones() == 0 {
		return 0
	}
	var sum int
	for z := 0; z < m.Zones(); z++ {
		sum += m.AssociatedPOIs(z)
	}
	return float64(sum) / float64(m.Zones())
}
