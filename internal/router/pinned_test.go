package router

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// pinnedJourneysSHA256 is the digest journeyDigest computes over the test
// city. It pins every label the search returns — not only arrival times,
// which the reference tests check, but the eight other journey fields and
// the itineraries — so a change to how the search does its work that
// changes any answer, even a tie between equal arrivals, shows here.
const pinnedJourneysSHA256 = "c5098680df70126ddfd3b01a7a8a3d0eb192292c63544735be53e20ab63b7d76"

// journeyDigest hashes, for three Options variants × test-city origins ×
// three departures: Reached and all nine Journey fields of every road node
// of ProfileFrom; the same for the targets of a ProfileTo over a zone set;
// and the RouteDetailed leg lists to a few zones.
func journeyDigest(t *testing.T) string {
	t.Helper()
	c, ix, _ := cityWorld(t)
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putf := func(f float64) { put(int64(math.Float64bits(f))) }
	journey := func(p *Profile, n graph.NodeID) {
		j, ok := p.Journey(n)
		if ok != p.Reached(n) {
			t.Fatalf("node %d: Journey ok=%v, Reached=%v", n, ok, p.Reached(n))
		}
		if !ok {
			put(-1)
			return
		}
		put(int64(j.Depart))
		put(int64(j.Arrive))
		putf(j.AccessWalk)
		putf(j.EgressWalk)
		putf(j.TransferWalk)
		putf(j.Wait)
		putf(j.InVehicle)
		put(int64(j.Boardings))
		putf(j.Fare)
	}
	var targets []graph.NodeID
	for z := 2; z < len(c.ZoneNode); z += 5 {
		targets = append(targets, c.ZoneNode[z])
	}
	for _, opts := range []Options{{}, {MaxJourney: 900}, {MaxWait: 120, BoardSlack: 90}} {
		r, err := New(c.Road, ix, c.StopNode, opts)
		if err != nil {
			t.Fatal(err)
		}
		for z := 0; z < len(c.ZoneNode); z += 3 {
			origin := c.ZoneNode[z]
			for _, depart := range []gtfs.Seconds{7*3600 + 13, 8 * 3600, 21*3600 + 30*60} {
				full, err := r.ProfileFrom(origin, depart)
				if err != nil {
					t.Fatal(err)
				}
				for n := 0; n < c.Road.NumNodes(); n++ {
					journey(full, graph.NodeID(n))
				}
				full.Release()
				bounded, err := r.ProfileTo(origin, depart, targets)
				if err != nil {
					t.Fatal(err)
				}
				for _, tg := range targets {
					journey(bounded, tg)
				}
				bounded.Release()
				for k := 1; k <= 4; k++ {
					dest := c.ZoneNode[(z*7+k*31)%len(c.ZoneNode)]
					_, legs, ok, err := r.RouteDetailed(origin, dest, depart)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						put(-1)
						continue
					}
					put(int64(len(legs)))
					for _, l := range legs {
						put(int64(l.Mode))
						put(int64(l.From))
						put(int64(l.To))
						put(int64(l.Depart))
						put(int64(l.Arrive))
						for _, s := range []string{string(l.Route), string(l.Trip), string(l.BoardStop), string(l.AlightStop)} {
							put(int64(len(s)))
							h.Write([]byte(s))
						}
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestJourneysPinned: the search returns, bit for bit, the pinned journeys
// and itineraries. A change to how the search does its work (which rides
// it skips, which relaxations it drops before building a label) must leave
// the digest as it is; a change meant to move an answer says so and pins
// the new digest.
func TestJourneysPinned(t *testing.T) {
	if got := journeyDigest(t); got != pinnedJourneysSHA256 {
		t.Errorf("journey digest %s, pinned %s", got, pinnedJourneysSHA256)
	}
}
