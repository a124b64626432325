// Package geo provides the geometric primitives used throughout the access
// query engine: geographic points, distance metrics, polygons, and basic
// computational-geometry routines (point-in-polygon, convex hull, bounding
// boxes).
//
// Points carry latitude/longitude in degrees. Distances use a fast
// equirectangular approximation that is accurate at city scale.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// EarthRadiusMeters is the mean Earth radius.
const EarthRadiusMeters = 6371000.0

// The walking model the generated street network and every walkshed
// share: the paper's walking speed ω = 4.5 km/h, over streets
// StreetDetour times longer than the straight line.
const (
	WalkSecondsPerMeter = 3.6 / 4.5
	StreetDetour        = 1.2
)

// Point is a geographic location in degrees latitude/longitude.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lon)
}

// DistanceMeters returns the equirectangular-approximation distance between a
// and b in meters. It is within a small fraction of a percent of the
// haversine distance at city scale (tens of kilometers) and roughly 5x
// cheaper, so it is the metric used on hot paths.
func DistanceMeters(a, b Point) float64 {
	const d2r = math.Pi / 180
	x := (b.Lon - a.Lon) * d2r * math.Cos((a.Lat+b.Lat)/2*d2r)
	y := (b.Lat - a.Lat) * d2r
	return EarthRadiusMeters * math.Sqrt(x*x+y*y)
}

// Midpoint returns the arithmetic midpoint of a and b. For city-scale
// distances this is indistinguishable from the geodesic midpoint.
func Midpoint(a, b Point) Point {
	return Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2}
}

// Offset returns the point reached by moving dx meters east and dy meters
// north of p. It inverts the equirectangular projection around p.
func Offset(p Point, dx, dy float64) Point {
	const r2d = 180 / math.Pi
	dLat := dy / EarthRadiusMeters * r2d
	dLon := dx / (EarthRadiusMeters * math.Cos(p.Lat*math.Pi/180)) * r2d
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}

// Rect is an axis-aligned bounding box in degrees.
type Rect struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// NewRect returns the smallest Rect containing all pts. It returns the zero
// Rect when pts is empty.
func NewRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{
		MinLat: pts[0].Lat, MaxLat: pts[0].Lat,
		MinLon: pts[0].Lon, MaxLon: pts[0].Lon,
	}
	for _, p := range pts[1:] {
		r = r.Extend(p)
	}
	return r
}

// Extend returns r grown to include p.
func (r Rect) Extend(p Point) Rect {
	if p.Lat < r.MinLat {
		r.MinLat = p.Lat
	}
	if p.Lat > r.MaxLat {
		r.MaxLat = p.Lat
	}
	if p.Lon < r.MinLon {
		r.MinLon = p.Lon
	}
	if p.Lon > r.MaxLon {
		r.MaxLon = p.Lon
	}
	return r
}

// Intersects reports whether r and o overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.MinLat <= o.MaxLat && o.MinLat <= r.MaxLat &&
		r.MinLon <= o.MaxLon && o.MinLon <= r.MaxLon
}

// Polygon is a simple (non-self-intersecting) closed polygon. The ring is
// implicitly closed: the last vertex connects back to the first.
type Polygon struct {
	Ring []Point `json:"ring"`
}

// Valid reports whether the polygon has at least three vertices.
func (pg Polygon) Valid() bool { return len(pg.Ring) >= 3 }

// Bounds returns the polygon's bounding box.
func (pg Polygon) Bounds() Rect { return NewRect(pg.Ring) }

// Contains reports whether p is inside the polygon using the ray-casting
// (even-odd) rule. Points exactly on an edge may be reported either way.
func (pg Polygon) Contains(p Point) bool {
	if len(pg.Ring) < 3 {
		return false
	}
	inside := false
	n := len(pg.Ring)
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg.Ring[i], pg.Ring[j]
		if (vi.Lat > p.Lat) != (vj.Lat > p.Lat) {
			cross := (vj.Lon-vi.Lon)*(p.Lat-vi.Lat)/(vj.Lat-vi.Lat) + vi.Lon
			if p.Lon < cross {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// Intersects reports whether two polygons overlap. It tests bounding boxes,
// then mutual vertex containment, then edge crossings. This is exact for
// simple polygons.
func (pg Polygon) Intersects(o Polygon) bool {
	if !pg.Valid() || !o.Valid() {
		return false
	}
	if !pg.Bounds().Intersects(o.Bounds()) {
		return false
	}
	for _, p := range o.Ring {
		if pg.Contains(p) {
			return true
		}
	}
	for _, p := range pg.Ring {
		if o.Contains(p) {
			return true
		}
	}
	n, m := len(pg.Ring), len(o.Ring)
	for i := 0; i < n; i++ {
		a1, a2 := pg.Ring[i], pg.Ring[(i+1)%n]
		for j := 0; j < m; j++ {
			b1, b2 := o.Ring[j], o.Ring[(j+1)%m]
			if segmentsCross(a1, a2, b1, b2) {
				return true
			}
		}
	}
	return false
}

// segmentsCross reports whether segments a1-a2 and b1-b2 properly intersect.
func segmentsCross(a1, a2, b1, b2 Point) bool {
	d1 := cross(b1, b2, a1)
	d2 := cross(b1, b2, a2)
	d3 := cross(a1, a2, b1)
	d4 := cross(a1, a2, b2)
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

// cross returns the z-component of (b-a) x (c-a) in lat/lon space.
func cross(a, b, c Point) float64 {
	return (b.Lon-a.Lon)*(c.Lat-a.Lat) - (b.Lat-a.Lat)*(c.Lon-a.Lon)
}

// ConvexHull returns the convex hull of pts in counter-clockwise order using
// the monotone-chain algorithm. The input slice is not modified. Degenerate
// inputs (fewer than three distinct points) return a copy of the distinct
// points.
func ConvexHull(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sortPoints(sorted)
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		out := make([]Point, len(uniq))
		copy(out, uniq)
		return out
	}
	var hull []Point
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// sortPoints sorts by (Lon, Lat).
func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Lon != pts[j].Lon {
			return pts[i].Lon < pts[j].Lon
		}
		return pts[i].Lat < pts[j].Lat
	})
}

// Circle returns a regular n-gon approximating a circle of the given radius
// (meters) around center. n must be at least 3.
func Circle(center Point, radiusMeters float64, n int) Polygon {
	if n < 3 {
		n = 3
	}
	ring := make([]Point, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		ring[i] = Offset(center, radiusMeters*math.Cos(theta), radiusMeters*math.Sin(theta))
	}
	return Polygon{Ring: ring}
}
