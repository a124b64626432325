// Package access implements the paper's accessibility measures over a
// populated TODAM (Section III-D): the mean access cost (MAC), the access
// cost standard deviation (ACSD), the four-class accessibility
// classification, and the Jain fairness index — plus the labeling driver
// that prices a zone's sampled trips with multimodal shortest-path queries.
package access

import (
	"context"
	"fmt"
	"math"
	"time"

	"accessquery/internal/fault"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/router"
	"accessquery/internal/todam"
)

// CostKind selects which access cost c(o, d, t) is measured.
type CostKind int

// The two access costs evaluated in the paper.
const (
	// JourneyTime is JT: arrival time minus start time, in seconds.
	JourneyTime CostKind = iota
	// Generalized is GAC: the DfT generalized cost of Eq. 1, in
	// generalized seconds.
	Generalized
)

// String implements fmt.Stringer.
func (k CostKind) String() string {
	if k == JourneyTime {
		return "JT"
	}
	return "GAC"
}

// ZoneMeasure is the zone-level aggregate of access costs: the target the
// SSR models learn.
type ZoneMeasure struct {
	Zone int
	// MAC is the mean access cost over the zone's sampled trips.
	MAC float64
	// ACSD is the standard deviation of those costs.
	ACSD float64
	// Trips is the number of priced trips.
	Trips int
	// WalkOnlyShare is the fraction of trips that used no transit, the
	// driver of the low-budget ACSD difficulty the paper discusses.
	WalkOnlyShare float64
}

// Class is the four-way accessibility classification from the paper.
type Class int

// Classification values. Low means below average, high above average.
const (
	// ClassBest: low MAC, low ACSD.
	ClassBest Class = iota
	// ClassMostlyGood: low MAC, high ACSD.
	ClassMostlyGood
	// ClassMostlyBad: high MAC, high ACSD.
	ClassMostlyBad
	// ClassWorst: high MAC, low ACSD.
	ClassWorst
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassBest:
		return "best"
	case ClassMostlyGood:
		return "mostly good"
	case ClassMostlyBad:
		return "mostly bad"
	default:
		return "worst"
	}
}

// Classify assigns each zone a class by comparing its MAC and ACSD to the
// across-zone means, per the paper's rule set.
func Classify(mac, acsd []float64) ([]Class, error) {
	if len(mac) != len(acsd) {
		return nil, fmt.Errorf("access: %d MAC values but %d ACSD values", len(mac), len(acsd))
	}
	if len(mac) == 0 {
		return nil, nil
	}
	meanMAC := mean(mac)
	meanACSD := mean(acsd)
	out := make([]Class, len(mac))
	for i := range mac {
		lowMAC := mac[i] <= meanMAC
		lowACSD := acsd[i] <= meanACSD
		switch {
		case lowMAC && lowACSD:
			out[i] = ClassBest
		case lowMAC && !lowACSD:
			out[i] = ClassMostlyGood
		case !lowMAC && !lowACSD:
			out[i] = ClassMostlyBad
		default:
			out[i] = ClassWorst
		}
	}
	return out, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// JainIndex returns Jain's fairness index over the values:
// (Σx)² / (n·Σx²). It is 1 when all values are equal and approaches 1/n
// under maximal unfairness. Zero-length or all-zero input returns 0.
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(values)) * sumSq)
}

// WeightedJainIndex weights each value's contribution (e.g. by zone
// population or a vulnerable-group share) by repeating it with weight w_i:
// ((Σwx)²)/(Σw · Σw x²). Weights must be non-negative and not all zero.
func WeightedJainIndex(values, weights []float64) (float64, error) {
	if len(values) != len(weights) {
		return 0, fmt.Errorf("access: %d values but %d weights", len(values), len(weights))
	}
	var wsum, wx, wxx float64
	for i, v := range values {
		w := weights[i]
		if w < 0 {
			return 0, fmt.Errorf("access: negative weight at %d", i)
		}
		wsum += w
		wx += w * v
		wxx += w * v * v
	}
	if wsum == 0 || wxx == 0 {
		return 0, fmt.Errorf("access: weights or values all zero")
	}
	return wx * wx / (wsum * wxx), nil
}

// Labeler prices TODAM trips using the multimodal router — the expensive
// SPQ step that semi-supervised regression avoids for most zones.
type Labeler struct {
	Router *router.Router
	Matrix *todam.Matrix
	// ZoneNode welds zone index to road node.
	ZoneNode []graph.NodeID
	// POINode welds POI index (within the matrix's POI set) to road node.
	POINode []graph.NodeID
	// Cost selects JT or GAC.
	Cost CostKind
	// Params prices GAC journeys.
	Params router.CostParams
	// MaxAttempts bounds how many times a transient profile failure (see
	// fault.IsTransient) is attempted before the zone is given up;  <= 1
	// disables retries. Retries back off exponentially from 1ms, capped at
	// 50ms.
	MaxAttempts int
	// Deadline, when non-zero, is checked between start-time groups; once
	// passed, labeling returns context.DeadlineExceeded so overshoot is
	// bounded by roughly one profile search.
	Deadline time.Time
	// Bank, when non-nil, is the cross-query priced-trip store: labeling
	// (LabelZone and LabelZonePairs alike) drains it before spending SPQ
	// budget and buffers what it prices into PendingDeposits. A nil bank
	// reproduces the unbanked code path exactly.
	Bank TripBank
	// SPQs counts shortest-path-query-equivalents performed (one per priced
	// trip), for the Table II accounting. Trips satisfied from the bank are
	// counted in Drained instead — they spent no router work.
	SPQs    int64
	Drained int64
	// PendingDeposits buffers priced trips awaiting a clean run. A zone's
	// deposits stay only when the zone completes without error, so a
	// deadline that fires mid-zone discards that zone's partial drain.
	// The engine flushes the buffer to the bank only after the whole
	// labeling stage finished at full fidelity.
	PendingDeposits []TripDeposit
	// Retries counts profile searches re-attempted after a transient
	// failure; Abandoned counts searches given up after MaxAttempts. Every
	// transient failure lands in exactly one of the two, so
	// injected faults == Retries + Abandoned under fault injection.
	Retries   int64
	Abandoned int64
	// sleep is swapped by tests to avoid real backoff waits.
	sleep func(time.Duration)
	// search is swapped by tests to compare against the exhaustive profile;
	// nil means Router.ProfileTo.
	search func(origin graph.NodeID, start gtfs.Seconds, targets []graph.NodeID) (*router.Profile, error)
	// trips, targets and drains are scratch reused across zones and start
	// groups: the zone's start-ordered trips, the group's target nodes, and
	// the group's bank answers (bank attached only).
	trips   todam.TripBuf
	targets []graph.NodeID
	drains  []drain
}

// drain is one trip's bank lookup within a start group.
type drain struct {
	price TripPrice
	hit   bool
}

const (
	retryBaseBackoff = time.Millisecond
	retryMaxBackoff  = 50 * time.Millisecond
)

// profile runs one profile search, bounded to the nodes in targets, with
// the labeler's retry policy: transient failures are re-attempted up to
// MaxAttempts with capped exponential backoff; anything else fails
// immediately.
func (l *Labeler) profile(origin graph.NodeID, start gtfs.Seconds, targets []graph.NodeID) (*router.Profile, error) {
	search := l.search
	if search == nil {
		search = l.Router.ProfileTo
	}
	backoff := retryBaseBackoff
	for attempt := 1; ; attempt++ {
		prof, err := search(origin, start, targets)
		if err == nil || !fault.IsTransient(err) {
			return prof, err
		}
		if attempt >= l.MaxAttempts {
			l.Abandoned++
			return nil, err
		}
		l.Retries++
		sleep := l.sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(backoff)
		backoff *= 2
		if backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
	}
}

// expired reports whether the labeler's deadline (if any) has passed.
func (l *Labeler) expired() bool {
	return !l.Deadline.IsZero() && time.Now().After(l.Deadline)
}

// LabelZone prices every sampled trip of the zone and aggregates to the
// zone level. Trips whose destination is unreachable are skipped; a zone
// with no reachable trips reports ok=false.
//
// The implementation amortizes: trips sharing a start time reuse one
// one-to-many profile, so the per-zone cost is bounded by the number of
// distinct start times rather than the trip count. SPQs still counts every
// priced trip, matching the paper's workload accounting.
//
// The profile is searched only as far as the answer needs: it stops once
// the POI nodes of the group's trips are settled, whose labels are final
// by then (see package router), so every journey equals the exhaustive
// search's.
//
// With a Bank attached, each start-time group first drains cached prices;
// the shared profile search runs only when at least one trip missed — and
// then only towards the trips that missed — and drained trips count in
// Drained rather than SPQs. Costs are appended in the same trip order
// either way, so the zone's aggregates are bit-equal to an unbanked run
// over the same engine generation.
func (l *Labeler) LabelZone(zone int) (ZoneMeasure, bool, error) {
	var costs []float64
	var walkOnly int
	err := l.priceZone(zone, func(_ todam.Trip, j router.Journey) {
		costs = append(costs, l.price(j))
		if j.WalkOnly() {
			walkOnly++
		}
	})
	if err != nil {
		return ZoneMeasure{}, false, err
	}
	if len(costs) == 0 {
		return ZoneMeasure{Zone: zone}, false, nil
	}
	m := ZoneMeasure{
		Zone:          zone,
		MAC:           mean(costs),
		Trips:         len(costs),
		WalkOnlyShare: float64(walkOnly) / float64(len(costs)),
	}
	var varSum float64
	for _, c := range costs {
		d := c - m.MAC
		varSum += d * d
	}
	m.ACSD = math.Sqrt(varSum / float64(len(costs)))
	return m, true, nil
}

// PairMeasure is the OD-level aggregate of one (zone, POI) pair's trips,
// used by the OD-granularity learning mode the paper weighs against
// origin-level aggregation (Section IV-C).
type PairMeasure struct {
	POI   int
	Alpha float64
	// Mean is the mean access cost over the pair's sampled trips.
	Mean float64
	// Trips is the number of priced trips.
	Trips int
}

// LabelZonePairs prices a zone's trips like LabelZone but aggregates to
// the (zone, POI) pair level instead of the zone level, in POI order.
func (l *Labeler) LabelZonePairs(zone int) ([]PairMeasure, error) {
	agg := make([]PairMeasure, len(l.POINode))
	err := l.priceZone(zone, func(tr todam.Trip, j router.Journey) {
		pm := &agg[tr.POI]
		pm.POI, pm.Alpha = tr.POI, tr.Alpha
		pm.Mean += l.price(j)
		pm.Trips++
	})
	if err != nil {
		return nil, err
	}
	var out []PairMeasure
	for _, pm := range agg {
		if pm.Trips > 0 {
			pm.Mean /= float64(pm.Trips)
			out = append(out, pm)
		}
	}
	return out, nil
}

// priceZone is the labeling loop behind LabelZone and LabelZonePairs. It
// prices every sampled trip of zone, one start-time group at a time, and
// calls fold with each reachable trip and its journey in trip order:
// ascending start time, then matrix row order.
//
// Per group it checks the deadline, drains the bank, searches one profile
// towards the POI nodes of the trips left to price (retrying transient
// failures), counts an SPQ per trip it did not drain, buffers a deposit per
// priced trip, and releases the profile once the journeys are copied out.
// The zone's deposits stay in PendingDeposits only if the whole zone
// completes, so a deadline that fires mid-zone discards its partial drain.
func (l *Labeler) priceZone(zone int, fold func(todam.Trip, router.Journey)) error {
	if zone < 0 || zone >= len(l.ZoneNode) {
		return fmt.Errorf("access: zone %d out of range", zone)
	}
	origin := l.ZoneNode[zone]
	mark := len(l.PendingDeposits)
	fail := func(err error) error {
		l.PendingDeposits = l.PendingDeposits[:mark]
		return fmt.Errorf("access: zone %d: %w", zone, err)
	}
	trips := l.Matrix.TripsByStart(zone, &l.trips)
	for len(trips) > 0 {
		start := trips[0].Start
		n := 1
		for n < len(trips) && trips[n].Start == start {
			n++
		}
		group := trips[:n]
		trips = trips[n:]
		if l.expired() {
			return fail(context.DeadlineExceeded)
		}
		// The search is needed when any trip is left to price, and is
		// bounded by the POI nodes of exactly those trips.
		needProfile := false
		targets, drains := l.targets[:0], l.drains[:0]
		for _, tr := range group {
			var d drain
			if tr.POI >= 0 && tr.POI < len(l.POINode) {
				dest := l.POINode[tr.POI]
				if l.Bank != nil {
					d.price, d.hit = l.Bank.Drain(TripKey{Zone: zone, Dest: dest, Start: start})
				}
				if !d.hit {
					targets = append(targets, dest)
				}
			}
			if d.hit {
				l.Drained++
			} else {
				needProfile = true
			}
			if l.Bank != nil {
				drains = append(drains, d)
			}
		}
		l.targets, l.drains = targets, drains
		var prof *router.Profile
		if needProfile {
			var err error
			if prof, err = l.profile(origin, start, targets); err != nil {
				return fail(err)
			}
		}
		for i, tr := range group {
			if l.Bank != nil && drains[i].hit {
				if p := drains[i].price; p.Reachable {
					fold(tr, p.Journey)
				}
				continue
			}
			l.SPQs++
			if tr.POI < 0 || tr.POI >= len(l.POINode) {
				continue
			}
			dest := l.POINode[tr.POI]
			j, ok := prof.Journey(dest)
			if l.Bank != nil {
				l.PendingDeposits = append(l.PendingDeposits, TripDeposit{
					Key:   TripKey{Zone: zone, Dest: dest, Start: start},
					Price: TripPrice{Journey: j, Reachable: ok},
				})
			}
			if ok {
				fold(tr, j)
			}
		}
		if prof != nil {
			prof.Release()
		}
	}
	return nil
}

func (l *Labeler) price(j router.Journey) float64 {
	if l.Cost == JourneyTime {
		return router.JourneyTime(j)
	}
	return l.Params.GeneralizedCost(j)
}
