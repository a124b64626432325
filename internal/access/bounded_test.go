package access

import (
	"reflect"
	"testing"

	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/obs"
	"accessquery/internal/router"
)

// mapBank is a TripBank that keeps everything it is given.
type mapBank map[TripKey]TripPrice

func (b mapBank) Drain(k TripKey) (TripPrice, bool) { p, ok := b[k]; return p, ok }
func (b mapBank) Deposit(deps []TripDeposit) {
	for _, d := range deps {
		b[d.Key] = d.Price
	}
}

// exhaustive makes a labeler price from the exhaustive profile, ignoring
// the targets — what the labeler did before the search was bounded.
func exhaustive(l *Labeler) {
	l.search = func(origin graph.NodeID, start gtfs.Seconds, _ []graph.NodeID) (*router.Profile, error) {
		return l.Router.ProfileFrom(origin, start)
	}
}

// TestBoundedLabelingEqualsExhaustive: whether the profile stops at the
// start group's POI nodes or settles the whole graph, every measure, the
// SPQ and drain counts and the buffered deposits are the same — with no
// bank, and with a bank that answers about half the trips so the target
// sets are the unbanked remainders.
func TestBoundedLabelingEqualsExhaustive(t *testing.T) {
	relaxations := obs.Counter("aq_router_relaxations_total")
	for _, kind := range []CostKind{JourneyTime, Generalized} {
		for _, banked := range []bool{false, true} {
			c, bounded := labeledWorld(t, kind)
			full := *bounded
			exhaustive(&full)
			if banked {
				// Price every other zone once and bank it, identically for
				// both labelers.
				seed := *bounded
				seed.Bank = mapBank{}
				for z := 0; z < len(c.Zones); z += 2 {
					if _, _, err := seed.LabelZone(z); err != nil {
						t.Fatal(err)
					}
				}
				if len(seed.PendingDeposits) == 0 {
					t.Fatal("seeding priced nothing")
				}
				a, b := mapBank{}, mapBank{}
				a.Deposit(seed.PendingDeposits)
				b.Deposit(seed.PendingDeposits)
				// Drop some of zone 0's prices so that one zone mixes
				// drained and priced trips inside a start group.
				dropped := 0
				for _, d := range seed.PendingDeposits {
					if d.Key.Zone == 0 && dropped%2 == 0 {
						delete(a, d.Key)
						delete(b, d.Key)
					}
					dropped++
				}
				bounded.Bank, full.Bank = a, b
			}
			var work [2]int64
			for i, l := range []*Labeler{bounded, &full} {
				before := relaxations.Value()
				for z := range c.Zones {
					if _, _, err := l.LabelZone(z); err != nil {
						t.Fatal(err)
					}
				}
				work[i] = relaxations.Value() - before
			}
			if work[0] >= work[1] {
				t.Errorf("%s banked=%v: bounded labeling made %d relaxations, exhaustive %d", kind, banked, work[0], work[1])
			}
			if bounded.SPQs != full.SPQs || bounded.Drained != full.Drained {
				t.Errorf("%s banked=%v: SPQs %d/%d, drained %d/%d", kind, banked, bounded.SPQs, full.SPQs, bounded.Drained, full.Drained)
			}
			if banked && (bounded.Drained == 0 || bounded.SPQs == 0) {
				t.Errorf("%s: bank case drained %d and priced %d trips; want both", kind, bounded.Drained, bounded.SPQs)
			}
			if !reflect.DeepEqual(bounded.PendingDeposits, full.PendingDeposits) {
				t.Errorf("%s banked=%v: pending deposits differ", kind, banked)
			}
			// A second pass compares the values themselves (the first left
			// both banks' contents untouched: deposits are only buffered).
			for z := range c.Zones {
				mb, okb, err := bounded.LabelZone(z)
				if err != nil {
					t.Fatal(err)
				}
				mf, okf, err := full.LabelZone(z)
				if err != nil {
					t.Fatal(err)
				}
				if mb != mf || okb != okf {
					t.Fatalf("%s banked=%v zone %d: bounded %+v %v, exhaustive %+v %v", kind, banked, z, mb, okb, mf, okf)
				}
				pb, err := bounded.LabelZonePairs(z)
				if err != nil {
					t.Fatal(err)
				}
				pf, err := full.LabelZonePairs(z)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pb, pf) {
					t.Fatalf("%s banked=%v zone %d: pair measures differ", kind, banked, z)
				}
			}
		}
	}
}
