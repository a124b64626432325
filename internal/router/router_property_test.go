package router

import (
	"math"
	"testing"
	"testing/quick"

	"accessquery/internal/gtfs"
)

// TestJourneyComponentIdentityProperty: for random city pairs and departure
// times, every found journey satisfies the accounting identity
// duration = access + wait + in-vehicle + transfer walk + egress, has
// non-negative components, and zeroed transit components when walk-only.
func TestJourneyComponentIdentityProperty(t *testing.T) {
	c, _, r := cityWorld(t)
	f := func(seed int64) bool {
		s := seed
		if s < 0 {
			s = -s
		}
		o := c.ZoneNode[int(s%int64(len(c.Zones)))]
		d := c.ZoneNode[int((s/7)%int64(len(c.Zones)))]
		depart := gtfs.Seconds(6*3600 + s%(14*3600))
		j, ok, err := r.Route(o, d, depart)
		if err != nil {
			return false
		}
		if !ok {
			return true // unreachable is a legal outcome
		}
		if j.Duration() < 0 {
			return false
		}
		for _, v := range []float64{j.AccessWalk, j.Wait, j.InVehicle, j.EgressWalk, j.TransferWalk, j.Fare} {
			if v < 0 {
				return false
			}
		}
		sum := j.AccessWalk + j.Wait + j.InVehicle + j.EgressWalk + j.TransferWalk
		if math.Abs(sum-j.Duration()) > 1.5 {
			return false
		}
		if j.WalkOnly() && (j.Wait != 0 || j.InVehicle != 0 || j.Fare != 0 || j.TransferWalk != 0) {
			return false
		}
		if !j.WalkOnly() && j.InVehicle <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDetailedLegsCoverJourneyProperty: reconstructed itineraries are
// contiguous, time-monotone, and account for the boardings.
func TestDetailedLegsCoverJourneyProperty(t *testing.T) {
	c, _, r := cityWorld(t)
	f := func(seed int64) bool {
		s := seed
		if s < 0 {
			s = -s
		}
		o := c.ZoneNode[int(s%int64(len(c.Zones)))]
		d := c.ZoneNode[int((s/11)%int64(len(c.Zones)))]
		depart := gtfs.Seconds(7*3600 + s%(2*3600))
		j, legs, ok, err := r.RouteDetailed(o, d, depart)
		if err != nil {
			return false
		}
		if !ok {
			return true
		}
		if o == d {
			return len(legs) == 0
		}
		if len(legs) == 0 {
			return false
		}
		if legs[0].From != o || legs[len(legs)-1].To != d {
			return false
		}
		rides := 0
		for i, leg := range legs {
			if i > 0 && legs[i-1].To != leg.From {
				return false
			}
			if i > 0 && leg.Arrive < legs[i-1].Arrive {
				return false
			}
			if leg.Mode == LegRide {
				rides++
				if leg.Route == "" || leg.BoardStop == "" || leg.AlightStop == "" {
					return false
				}
			}
		}
		if rides != j.Boardings {
			return false
		}
		return legs[len(legs)-1].Arrive == j.Arrive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
