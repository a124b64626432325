// Package isochrone computes walking isochrones: the area reachable on foot
// from a zone centroid within an acceptable walking time τ at walking speed
// ω (the paper uses τ=600 s, ω=4.5 km/h). Isochrones serve two roles in the
// pipeline: intersecting F_stops with W_i yields the bus stops walkable from
// zone z_i during transit-hop tree generation, and intersecting two
// isochrones detects interchanges during online feature extraction.
package isochrone

import (
	"fmt"
	"sort"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/par"
)

// DefaultTauSeconds is the acceptable walking time from the paper's
// experiments.
const DefaultTauSeconds = 600

// Isochrone is the walkable area around an origin within τ seconds.
type Isochrone struct {
	// Origin is the point the isochrone is centered on.
	Origin geo.Point
	// OriginNode is the road node the origin was snapped to.
	OriginNode graph.NodeID
	// Tau is the walking-time bound in seconds.
	Tau float64
	// NodeIDs lists every road node reachable within Tau, sorted ascending;
	// NodeSeconds holds the walking time to the node at the same index. The
	// parallel flat arrays replace the old node map so a snapshot can store
	// (and mmap) them as contiguous numeric sections.
	NodeIDs     []graph.NodeID
	NodeSeconds []float64
	// Hull is the convex hull of the reached nodes, the polygon form used
	// for point-in-walkshed and walkshed-overlap tests.
	Hull geo.Polygon
}

// Compute builds the isochrone around originNode on the road graph g. The
// origin point is recorded for callers that snapped from an off-network
// location. When the walkshed is degenerate (fewer than three reached
// nodes), the hull falls back to a circle of the crow-flight walking radius
// so Contains still behaves sensibly.
func Compute(g *graph.Graph, origin geo.Point, originNode graph.NodeID, tau float64) (*Isochrone, error) {
	if tau < 0 {
		return nil, fmt.Errorf("isochrone: negative tau %f", tau)
	}
	nodes, err := g.Explore(originNode, tau)
	if err != nil {
		return nil, fmt.Errorf("isochrone: %w", err)
	}
	ids := make([]graph.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	secs := make([]float64, len(ids))
	for i, id := range ids {
		secs[i] = nodes[id]
	}
	iso := &Isochrone{
		Origin:      origin,
		OriginNode:  originNode,
		Tau:         tau,
		NodeIDs:     ids,
		NodeSeconds: secs,
	}
	pts := make([]geo.Point, 0, len(ids)+1)
	for _, id := range ids {
		pts = append(pts, g.Point(id))
	}
	pts = append(pts, origin)
	hull := geo.ConvexHull(pts)
	if len(hull) >= 3 {
		iso.Hull = geo.Polygon{Ring: hull}
	} else {
		// Degenerate walkshed: use the unobstructed walking circle.
		radius := tau / geo.WalkSecondsPerMeter
		iso.Hull = geo.Circle(origin, radius, 12)
	}
	return iso, nil
}

// Contains reports whether p lies inside the walkshed polygon.
func (iso *Isochrone) Contains(p geo.Point) bool { return iso.Hull.Contains(p) }

// Intersects reports whether two walksheds overlap.
func (iso *Isochrone) Intersects(other *Isochrone) bool {
	if other == nil {
		return false
	}
	return iso.Hull.Intersects(other.Hull)
}

// Set holds one isochrone per zone, the W structure from the paper.
type Set struct {
	Tau        float64
	Isochrones []*Isochrone
}

// ComputeSetParallel builds isochrones for each (origin, originNode) pair,
// typically zone centroids and their welded road nodes, with the per-zone
// Dijkstras fanned across a worker pool. Each zone's isochrone depends only
// on the (read-only) road graph and its own origin, and every worker writes
// only its zone's slot, so the result is identical to the serial
// computation for any workers value; workers <= 1 runs serially.
func ComputeSetParallel(g *graph.Graph, origins []geo.Point, originNodes []graph.NodeID, tau float64, workers int) (*Set, error) {
	if len(origins) != len(originNodes) {
		return nil, fmt.Errorf("isochrone: %d origins but %d nodes", len(origins), len(originNodes))
	}
	s := &Set{Tau: tau, Isochrones: make([]*Isochrone, len(origins))}
	err := par.For(workers, len(origins), func(i int) error {
		iso, err := Compute(g, origins[i], originNodes[i], tau)
		if err != nil {
			return fmt.Errorf("isochrone: zone %d: %w", i, err)
		}
		s.Isochrones[i] = iso
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// For returns the isochrone for index i, or nil when out of range.
func (s *Set) For(i int) *Isochrone {
	if i < 0 || i >= len(s.Isochrones) {
		return nil
	}
	return s.Isochrones[i]
}
