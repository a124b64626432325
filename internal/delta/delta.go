// Package delta implements incremental network maintenance: typed
// mutations over a city's transit network, POIs, and zone weights, a
// dependency analysis bounding each mutation's blast radius (affected
// stops → hop trees → TODAM rows → feature-cache entries), and an apply
// step that rebuilds only that radius instead of re-running the full
// offline pipeline.
//
// The dependency chain, per mutation kind:
//
//   - close_route / reopen_route / scale_headway touch only the trips of
//     one route, and a trip of route R calls only at R's stops. Only hop
//     trees of zones whose walkshed contains one of those stops can
//     change; every other zone's trees — and the feature-cache entries
//     derived purely from unchanged trees — are shared with the current
//     engine. The timetable router is rebuilt (it indexes all trips, and
//     rebuilding it is cheap relative to tree generation).
//
//   - add_poi / remove_poi / reweight_poi / scale_zone_attractiveness
//     change nothing offline: POIs and weights enter the pipeline only at
//     query time, through the TODAM gravity spec. The derived engine
//     shares forest, extractor, and router outright, and the new epoch
//     exists purely so epoch-keyed caches invalidate.
//
// Mutations always apply cumulatively from the scenario's baseline city,
// which is what lets reopen_route restore service a prior delta closed.
package delta

import (
	"fmt"
	"math"
	"sort"

	"accessquery/internal/geo"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

// Kind enumerates the supported network mutations.
type Kind string

// Mutation kinds.
const (
	// CloseRoute removes every trip of a route (a closure or strike).
	CloseRoute Kind = "close_route"
	// ReopenRoute cancels a prior closure, restoring baseline service.
	ReopenRoute Kind = "reopen_route"
	// ScaleHeadway multiplies a route's headways by Factor: 2 halves
	// service (keeps every other trip), 0.5 doubles it (inserts
	// interpolated trips).
	ScaleHeadway Kind = "scale_headway"
	// AddPOI appends a POI to a category at (Lat, Lon) with Factor as its
	// attractiveness weight (0 means 1).
	AddPOI Kind = "add_poi"
	// RemovePOI deletes the POI at index POI within Category.
	RemovePOI Kind = "remove_poi"
	// ReweightPOI multiplies the weight of the POI at index POI within
	// Category by Factor.
	ReweightPOI Kind = "reweight_poi"
	// ScaleZoneWeight multiplies one zone's attractiveness weight by
	// Factor.
	ScaleZoneWeight Kind = "scale_zone_attractiveness"
)

// Mutation is one typed network edit. Which fields matter depends on Kind;
// Validate rejects combinations that do not describe a legal edit of the
// given city.
type Mutation struct {
	Kind Kind `json:"kind"`
	// Route names the target route for transit mutations.
	Route string `json:"route,omitempty"`
	// Factor is the headway multiplier, POI weight multiplier, or zone
	// weight multiplier, depending on Kind.
	Factor float64 `json:"factor,omitempty"`
	// Category names the POI category for POI mutations.
	Category string `json:"category,omitempty"`
	// POI indexes the target POI within its category.
	POI int `json:"poi,omitempty"`
	// Lat and Lon place an added POI.
	Lat float64 `json:"lat,omitempty"`
	Lon float64 `json:"lon,omitempty"`
	// Zone indexes the target zone for scale_zone_attractiveness.
	Zone int `json:"zone,omitempty"`
}

// String renders the mutation compactly for logs and summaries.
func (m Mutation) String() string {
	switch m.Kind {
	case CloseRoute, ReopenRoute:
		return fmt.Sprintf("%s %s", m.Kind, m.Route)
	case ScaleHeadway:
		return fmt.Sprintf("%s %s x%g", m.Kind, m.Route, m.Factor)
	case AddPOI:
		return fmt.Sprintf("%s %s (%.4f, %.4f)", m.Kind, m.Category, m.Lat, m.Lon)
	case RemovePOI, ReweightPOI:
		return fmt.Sprintf("%s %s[%d]", m.Kind, m.Category, m.POI)
	case ScaleZoneWeight:
		return fmt.Sprintf("%s zone %d x%g", m.Kind, m.Zone, m.Factor)
	}
	return string(m.Kind)
}

// transit reports whether the mutation edits the timetable.
func (m Mutation) transit() bool {
	switch m.Kind {
	case CloseRoute, ReopenRoute, ScaleHeadway:
		return true
	}
	return false
}

// validate checks the mutation against the current (partially mutated)
// city state. poiCounts tracks category sizes as earlier mutations in the
// batch add and remove POIs.
func (m Mutation) validate(city *synth.City, poiCounts map[synth.POICategory]int) error {
	switch m.Kind {
	case CloseRoute, ReopenRoute:
		if _, ok := city.Feed.Route(gtfs.RouteID(m.Route)); !ok {
			return fmt.Errorf("delta: %s: unknown route %q", m.Kind, m.Route)
		}
	case ScaleHeadway:
		if _, ok := city.Feed.Route(gtfs.RouteID(m.Route)); !ok {
			return fmt.Errorf("delta: %s: unknown route %q", m.Kind, m.Route)
		}
		if m.Factor <= 0 || math.IsInf(m.Factor, 0) || math.IsNaN(m.Factor) {
			return fmt.Errorf("delta: %s %s: factor must be a positive number, got %v", m.Kind, m.Route, m.Factor)
		}
	case AddPOI:
		cat := synth.POICategory(m.Category)
		if poiCounts[cat] == 0 {
			return fmt.Errorf("delta: %s: unknown category %q", m.Kind, m.Category)
		}
		if m.Factor < 0 || math.IsInf(m.Factor, 0) || math.IsNaN(m.Factor) {
			return fmt.Errorf("delta: %s %s: weight factor must be >= 0, got %v", m.Kind, m.Category, m.Factor)
		}
	case RemovePOI:
		cat := synth.POICategory(m.Category)
		n := poiCounts[cat]
		if n == 0 {
			return fmt.Errorf("delta: %s: unknown category %q", m.Kind, m.Category)
		}
		if m.POI < 0 || m.POI >= n {
			return fmt.Errorf("delta: %s %s[%d]: index out of range (category has %d POIs)", m.Kind, m.Category, m.POI, n)
		}
		if n == 1 {
			return fmt.Errorf("delta: %s %s[%d]: cannot remove a category's last POI", m.Kind, m.Category, m.POI)
		}
	case ReweightPOI:
		cat := synth.POICategory(m.Category)
		n := poiCounts[cat]
		if n == 0 {
			return fmt.Errorf("delta: %s: unknown category %q", m.Kind, m.Category)
		}
		if m.POI < 0 || m.POI >= n {
			return fmt.Errorf("delta: %s %s[%d]: index out of range (category has %d POIs)", m.Kind, m.Category, m.POI, n)
		}
		if m.Factor <= 0 || math.IsInf(m.Factor, 0) || math.IsNaN(m.Factor) {
			return fmt.Errorf("delta: %s %s[%d]: factor must be a positive number, got %v", m.Kind, m.Category, m.POI, m.Factor)
		}
	case ScaleZoneWeight:
		if m.Zone < 0 || m.Zone >= len(city.Zones) {
			return fmt.Errorf("delta: %s: zone %d out of range (city has %d zones)", m.Kind, m.Zone, len(city.Zones))
		}
		if m.Factor < 0 || math.IsInf(m.Factor, 0) || math.IsNaN(m.Factor) {
			return fmt.Errorf("delta: %s zone %d: factor must be >= 0, got %v", m.Kind, m.Zone, m.Factor)
		}
	default:
		return fmt.Errorf("delta: unknown mutation kind %q", m.Kind)
	}
	return nil
}

// MutateCity applies mutations in order to a copy-on-write derivation of
// base, which is never modified. It returns the mutated city and whether
// the timetable changed. The same function backs both the incremental
// apply path and from-scratch rebuilds, so the two paths operate on an
// identical city by construction.
func MutateCity(base *synth.City, muts []Mutation) (*synth.City, bool, error) {
	if base == nil {
		return nil, false, fmt.Errorf("delta: nil city")
	}
	city := *base // shallow copy; every mutated member is replaced below

	// POIs and zone weights apply sequentially (indices refer to the
	// state left by earlier mutations in the list).
	poiCounts := make(map[synth.POICategory]int, len(base.POIs))
	for cat, ps := range base.POIs {
		poiCounts[cat] = len(ps)
	}
	poisCopied := false
	copyCategory := func(cat synth.POICategory) {
		if !poisCopied {
			m := make(map[synth.POICategory][]synth.POI, len(city.POIs))
			for c, ps := range city.POIs {
				m[c] = ps
			}
			city.POIs = m
			poisCopied = true
		}
		city.POIs[cat] = append([]synth.POI(nil), city.POIs[cat]...)
	}
	zoneWeightsCopied := false
	zoneWeights := func() []float64 {
		if !zoneWeightsCopied {
			zw := make([]float64, len(city.Zones))
			for i := range zw {
				zw[i] = 1
			}
			copy(zw, city.ZoneWeights)
			city.ZoneWeights = zw
			zoneWeightsCopied = true
		}
		return city.ZoneWeights
	}

	// Transit mutations compose into per-route final states and are
	// applied in one timetable pass afterwards.
	closed := make(map[gtfs.RouteID]bool)
	headway := make(map[gtfs.RouteID]float64)
	transitChanged := false

	for _, m := range muts {
		if err := m.validate(&city, poiCounts); err != nil {
			return nil, false, err
		}
		switch m.Kind {
		case CloseRoute:
			closed[gtfs.RouteID(m.Route)] = true
			transitChanged = true
		case ReopenRoute:
			closed[gtfs.RouteID(m.Route)] = false
			delete(headway, gtfs.RouteID(m.Route))
			transitChanged = true
		case ScaleHeadway:
			cur, ok := headway[gtfs.RouteID(m.Route)]
			if !ok {
				cur = 1
			}
			headway[gtfs.RouteID(m.Route)] = cur * m.Factor
			transitChanged = true
		case AddPOI:
			cat := synth.POICategory(m.Category)
			copyCategory(cat)
			w := m.Factor
			if w == 0 {
				w = 1
			}
			city.POIs[cat] = append(city.POIs[cat], synth.POI{
				ID:       len(city.POIs[cat]),
				Category: cat,
				Point:    geo.Point{Lat: m.Lat, Lon: m.Lon},
				Name:     fmt.Sprintf("scenario %s %d", cat, len(city.POIs[cat])),
				Weight:   w,
			})
			poiCounts[cat]++
		case RemovePOI:
			cat := synth.POICategory(m.Category)
			copyCategory(cat)
			ps := city.POIs[cat]
			city.POIs[cat] = append(ps[:m.POI:m.POI], ps[m.POI+1:]...)
			poiCounts[cat]--
		case ReweightPOI:
			cat := synth.POICategory(m.Category)
			copyCategory(cat)
			p := &city.POIs[cat][m.POI]
			w := p.Weight
			if w == 0 {
				w = 1
			}
			p.Weight = w * m.Factor
		case ScaleZoneWeight:
			zoneWeights()[m.Zone] *= m.Factor
		}
	}

	if transitChanged {
		feed, changed := mutateFeed(base.Feed, closed, headway)
		city.Feed = feed
		if !changed {
			transitChanged = false
		}
	}
	return &city, transitChanged, nil
}

// mutateFeed derives a timetable from base with the composed route states
// applied: closed routes lose all trips, headway-scaled routes have their
// trips deterministically thinned (factor > 1) or densified with
// interpolated insertions (factor < 1). The relative order of surviving
// baseline trips is preserved and inserted trips follow the trip they
// interpolate from, so the derived feed is deterministic.
func mutateFeed(base *gtfs.Feed, closed map[gtfs.RouteID]bool, headway map[gtfs.RouteID]float64) (*gtfs.Feed, bool) {
	// keep resolves thinning per scaled route: trips grouped by
	// (service, headsign) — one timetable column per direction — sorted
	// by first departure, keeping trip i when its decimated slot index
	// advances past trip i-1's.
	drop := make(map[gtfs.TripID]bool)
	insertAfter := make(map[gtfs.TripID][]gtfs.Trip)
	// taken holds every trip ID of the derived feed so far, so an
	// inserted trip never shares one (see shiftTrip); built on first use.
	var taken map[gtfs.TripID]bool
	for routeID, factor := range headway {
		if factor == 1 || closed[routeID] {
			continue
		}
		groups := make(map[string][]int) // group key -> indices into base.Trips
		var order []string
		for i, t := range base.Trips {
			if t.RouteID != routeID {
				continue
			}
			key := string(t.ServiceID) + "\x00" + t.Headsign
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], i)
		}
		for _, key := range order {
			idx := groups[key]
			sort.SliceStable(idx, func(a, b int) bool {
				return firstDeparture(base.Trips[idx[a]]) < firstDeparture(base.Trips[idx[b]])
			})
			if factor > 1 {
				// Keep roughly every factor-th trip: trip i survives when
				// floor(i/factor) advances.
				prev := -1
				for i, ti := range idx {
					slot := int(float64(i) / factor)
					if slot == prev {
						drop[base.Trips[ti].ID] = true
					} else {
						prev = slot
					}
				}
			} else {
				// Insert round(1/factor)-1 interpolated trips into each
				// gap, evenly time-shifted copies of the earlier trip.
				extra := int(math.Round(1/factor)) - 1
				if extra <= 0 {
					continue
				}
				if taken == nil {
					taken = make(map[gtfs.TripID]bool, len(base.Trips))
					for _, t := range base.Trips {
						taken[t.ID] = true
					}
				}
				for i := 0; i+1 < len(idx); i++ {
					a, b := base.Trips[idx[i]], base.Trips[idx[i+1]]
					gap := firstDeparture(b) - firstDeparture(a)
					if gap <= 0 {
						continue
					}
					for j := 1; j <= extra; j++ {
						shift := gtfs.Seconds(int(gap) * j / (extra + 1))
						if shift == 0 {
							continue
						}
						insertAfter[a.ID] = append(insertAfter[a.ID], shiftTrip(a, shift, j, taken))
					}
				}
			}
		}
	}

	out := base.Clone()
	trips := out.Trips[:0:0]
	changed := false
	for _, t := range base.Trips {
		if closed[t.RouteID] || drop[t.ID] {
			changed = true
			continue
		}
		trips = append(trips, t)
		if ins := insertAfter[t.ID]; len(ins) > 0 {
			trips = append(trips, ins...)
			changed = true
		}
	}
	out.Trips = trips
	return out, changed
}

// firstDeparture returns the trip's initial departure time.
func firstDeparture(t gtfs.Trip) gtfs.Seconds {
	if len(t.StopTimes) == 0 {
		return 0
	}
	return t.StopTimes[0].Departure
}

// shiftTrip clones a trip with all stop times shifted by delta seconds and
// a derived, deterministic trip ID, "<id>#d<n>", which it adds to taken. A
// feed's own trip could already carry that ID, so while it is taken the
// ID grows a further "#d<n>": the router refuses a schedule that names two
// trips alike, because departures and itineraries name a trip by its ID.
func shiftTrip(t gtfs.Trip, delta gtfs.Seconds, n int, taken map[gtfs.TripID]bool) gtfs.Trip {
	out := t
	out.ID = gtfs.TripID(fmt.Sprintf("%s#d%d", t.ID, n))
	for taken[out.ID] {
		out.ID = gtfs.TripID(fmt.Sprintf("%s#d%d", out.ID, n))
	}
	taken[out.ID] = true
	out.StopTimes = make([]gtfs.StopTime, len(t.StopTimes))
	for i, st := range t.StopTimes {
		st.Arrival += delta
		st.Departure += delta
		out.StopTimes[i] = st
	}
	return out
}
