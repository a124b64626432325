// Incremental forest maintenance for the scenario delta layer.
//
// A network mutation touching a set of stops can only change the hop trees
// of zones whose walkshed contains one of those stops: a tree's leaves are
// produced exclusively by rides boarded (outbound) or alighted (inbound)
// at the root zone's walkable stops, and a trip of route R calls only at
// R's stops. Every other zone's trees are value-identical to a from-scratch
// build over the mutated feed, so they can be shared pointer-for-pointer —
// trees are immutable once built.
package hoptree

import (
	"fmt"
	"sort"

	"accessquery/internal/geo"
	"accessquery/internal/isochrone"
	"accessquery/internal/par"
	"accessquery/internal/spatial"
)

// ZonesWithinWalkshed returns the sorted set of zones whose walkshed
// contains at least one of the given stop points. It mirrors the builder's
// walkableStops predicate exactly (crow-flight radius from the zone's
// isochrone origin, filtered by hull membership), run in reverse: for each
// stop, find the zones close enough to walk to it. This is the dependency
// analysis mapping mutated stops to the hop trees they can affect.
func ZonesWithinWalkshed(zonePts []geo.Point, isos *isochrone.Set, stops []geo.Point) []int {
	if isos == nil || len(zonePts) == 0 || len(stops) == 0 {
		return nil
	}
	items := make([]spatial.Item, len(zonePts))
	for i, p := range zonePts {
		items[i] = spatial.Item{ID: i, Point: p}
	}
	zoneTree := spatial.NewKDTree(items)
	radius := isos.Tau / geo.WalkSecondsPerMeter
	affected := make(map[int]bool)
	for _, sp := range stops {
		for _, nb := range zoneTree.WithinRadius(sp, radius) {
			z := nb.Item.ID
			if affected[z] {
				continue
			}
			// Distance is symmetric, so the radius gate matches
			// walkableStops; hull membership is the second, asymmetric
			// half of the predicate.
			if iso := isos.For(z); iso != nil && iso.Contains(sp) {
				affected[z] = true
			}
		}
	}
	out := make([]int, 0, len(affected))
	for z := range affected {
		out = append(out, z)
	}
	sort.Ints(out)
	return out
}

// RebuildZones derives a forest from base by rebuilding only the given
// zones' outbound and inbound trees with b (a builder over the mutated
// feed) and sharing base's trees for every other zone. The rebuild fans
// out across a worker pool; results are identical at any workers value.
//
// Correctness requires that zones covers every zone whose walkshed
// contains a mutated stop — ZonesWithinWalkshed computes exactly that set.
func RebuildZones(b *Builder, base *Forest, zones []int, workers int) (*Forest, error) {
	n := len(b.zonePts)
	if base == nil {
		return nil, fmt.Errorf("hoptree: nil base forest")
	}
	if base.Zones() != n {
		return nil, fmt.Errorf("hoptree: base forest covers %d zones, builder %d", base.Zones(), n)
	}
	f := &Forest{
		Interval: b.interval,
		Out:      make([]*Tree, n),
		In:       make([]*Tree, n),
	}
	copy(f.Out, base.Out)
	copy(f.In, base.In)
	err := par.For(workers, len(zones), func(i int) error {
		z := zones[i]
		out, err := b.Outbound(z)
		if err != nil {
			return err
		}
		in, err := b.Inbound(z)
		if err != nil {
			return err
		}
		f.Out[z] = out
		f.In[z] = in
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}
