package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// birmingham is a reference point used by the tests; the synthetic cities are
// generated around comparable UK latitudes, so the approximation-accuracy
// tests below exercise the operating regime.
var birmingham = Point{Lat: 52.4862, Lon: -1.8904}

// Valid reports whether the point lies within the legal lat/lon ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// HaversineMeters returns the great-circle distance between a and b in meters.
func HaversineMeters(a, b Point) float64 {
	const d2r = math.Pi / 180
	lat1 := a.Lat * d2r
	lat2 := b.Lat * d2r
	dLat := (b.Lat - a.Lat) * d2r
	dLon := (b.Lon - a.Lon) * d2r
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Contains reports whether p lies within r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Centroid returns the arithmetic mean of pts, or the zero Point when empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var lat, lon float64
	for _, p := range pts {
		lat += p.Lat
		lon += p.Lon
	}
	n := float64(len(pts))
	return Point{Lat: lat / n, Lon: lon / n}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{52.5, -1.9}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
		{Point{0, math.NaN()}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// Birmingham to Coventry is roughly 30.5 km.
	coventry := Point{Lat: 52.4068, Lon: -1.5197}
	d := HaversineMeters(birmingham, coventry)
	if d < 26000 || d > 28500 {
		t.Errorf("Birmingham-Coventry haversine = %.0f m, want ~27 km", d)
	}
}

func TestHaversineZero(t *testing.T) {
	if d := HaversineMeters(birmingham, birmingham); d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(aLat, aLon, bLat, bLon float64) bool {
		a := Point{Lat: math.Mod(aLat, 80), Lon: math.Mod(aLon, 170)}
		b := Point{Lat: math.Mod(bLat, 80), Lon: math.Mod(bLon, 170)}
		d1 := HaversineMeters(a, b)
		d2 := HaversineMeters(b, a)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquirectangularCloseToHaversineAtCityScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		// Points within ~25 km of Birmingham.
		a := Offset(birmingham, (rng.Float64()-0.5)*50000, (rng.Float64()-0.5)*50000)
		b := Offset(birmingham, (rng.Float64()-0.5)*50000, (rng.Float64()-0.5)*50000)
		hav := HaversineMeters(a, b)
		eq := DistanceMeters(a, b)
		if hav > 100 && math.Abs(hav-eq)/hav > 0.005 {
			t.Fatalf("equirectangular error %.4f%% at %.0f m", 100*math.Abs(hav-eq)/hav, hav)
		}
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		dx := (rng.Float64() - 0.5) * 20000
		dy := (rng.Float64() - 0.5) * 20000
		q := Offset(birmingham, dx, dy)
		want := math.Hypot(dx, dy)
		got := DistanceMeters(birmingham, q)
		if math.Abs(got-want) > 0.01*want+1 {
			t.Fatalf("Offset(%f,%f): distance %f, want %f", dx, dy, got, want)
		}
	}
}

func TestRectContainsAndExtend(t *testing.T) {
	pts := []Point{{1, 1}, {3, 4}, {-2, 0}}
	r := NewRect(pts)
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("rect should contain %v", p)
		}
	}
	if r.Contains(Point{5, 5}) {
		t.Error("rect should not contain (5,5)")
	}
	if r.MinLat != -2 || r.MaxLat != 3 || r.MinLon != 0 || r.MaxLon != 4 {
		t.Errorf("unexpected bounds: %+v", r)
	}
}

func TestRectEmptyInput(t *testing.T) {
	r := NewRect(nil)
	if r != (Rect{}) {
		t.Errorf("NewRect(nil) = %+v, want zero", r)
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	c := Rect{5, 5, 6, 6}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Error("a and c should not intersect")
	}
	// Touching edges count as intersecting.
	d := Rect{2, 2, 4, 4}
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
}

func TestPolygonContains(t *testing.T) {
	square := Polygon{Ring: []Point{{0, 0}, {0, 10}, {10, 10}, {10, 0}}}
	inside := []Point{{5, 5}, {1, 1}, {9.9, 9.9}}
	outside := []Point{{-1, 5}, {5, 11}, {11, 11}, {-5, -5}}
	for _, p := range inside {
		if !square.Contains(p) {
			t.Errorf("square should contain %v", p)
		}
	}
	for _, p := range outside {
		if square.Contains(p) {
			t.Errorf("square should not contain %v", p)
		}
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// A "U" shape: notch cut from the high-Lon side between Lat 4 and 6.
	u := Polygon{Ring: []Point{
		{0, 0}, {10, 0}, {10, 10}, {6, 10}, {6, 3}, {4, 3}, {4, 10}, {0, 10},
	}}
	if !u.Contains(Point{2, 5}) {
		t.Error("point in left arm should be inside")
	}
	if u.Contains(Point{5, 8}) {
		t.Error("point in the notch should be outside")
	}
}

func TestPolygonDegenerate(t *testing.T) {
	if (Polygon{}).Contains(Point{0, 0}) {
		t.Error("empty polygon contains nothing")
	}
	if (Polygon{Ring: []Point{{0, 0}, {1, 1}}}).Valid() {
		t.Error("two-point polygon is invalid")
	}
}

func TestPolygonIntersects(t *testing.T) {
	a := Polygon{Ring: []Point{{0, 0}, {0, 4}, {4, 4}, {4, 0}}}
	b := Polygon{Ring: []Point{{2, 2}, {2, 6}, {6, 6}, {6, 2}}}
	c := Polygon{Ring: []Point{{10, 10}, {10, 12}, {12, 12}, {12, 10}}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping polygons should intersect")
	}
	if a.Intersects(c) {
		t.Error("distant polygons should not intersect")
	}
	// Cross shape: edges cross but no vertex containment.
	h := Polygon{Ring: []Point{{4, 0}, {6, 0}, {6, 10}, {4, 10}}}
	v := Polygon{Ring: []Point{{0, 4}, {10, 4}, {10, 6}, {0, 6}}}
	if !h.Intersects(v) {
		t.Error("crossing polygons should intersect even without contained vertices")
	}
}

func TestConvexHullSquareWithInterior(t *testing.T) {
	pts := []Point{{0, 0}, {0, 4}, {4, 4}, {4, 0}, {2, 2}, {1, 3}, {3, 1}}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", len(hull), hull)
	}
	want := map[Point]bool{{0, 0}: true, {0, 4}: true, {4, 4}: true, {4, 0}: true}
	for _, p := range hull {
		if !want[p] {
			t.Errorf("unexpected hull vertex %v", p)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Errorf("hull of nil = %v, want nil", h)
	}
	one := ConvexHull([]Point{{1, 1}})
	if len(one) != 1 {
		t.Errorf("hull of one point has %d points", len(one))
	}
	dup := ConvexHull([]Point{{1, 1}, {1, 1}, {1, 1}})
	if len(dup) != 1 {
		t.Errorf("hull of duplicates has %d points", len(dup))
	}
	collinear := ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(collinear) > 2 {
		t.Errorf("hull of collinear points has %d points, want <=2", len(collinear))
	}
}

func TestConvexHullContainsAllPointsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Lat: rng.Float64() * 10, Lon: rng.Float64() * 10}
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue
		}
		pg := Polygon{Ring: hull}
		for _, p := range pts {
			// Shrink toward centroid slightly to dodge boundary ambiguity.
			c := Centroid(hull)
			q := Point{Lat: p.Lat + (c.Lat-p.Lat)*1e-9, Lon: p.Lon + (c.Lon-p.Lon)*1e-9}
			onHull := false
			for _, h := range hull {
				if h == p {
					onHull = true
					break
				}
			}
			if !onHull && !pg.Contains(q) {
				t.Fatalf("hull does not contain input point %v (hull %v)", p, hull)
			}
		}
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid([]Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}})
	if c != (Point{1, 1}) {
		t.Errorf("centroid = %v, want (1,1)", c)
	}
	if Centroid(nil) != (Point{}) {
		t.Error("centroid of nil should be zero point")
	}
}

func TestCircle(t *testing.T) {
	pg := Circle(birmingham, 500, 16)
	if len(pg.Ring) != 16 {
		t.Fatalf("ring size = %d", len(pg.Ring))
	}
	for _, p := range pg.Ring {
		d := DistanceMeters(birmingham, p)
		if math.Abs(d-500) > 5 {
			t.Errorf("circle vertex at distance %f, want 500", d)
		}
	}
	if !pg.Contains(birmingham) {
		t.Error("circle should contain its center")
	}
	// n below 3 is clamped.
	if got := len(Circle(birmingham, 100, 1).Ring); got != 3 {
		t.Errorf("clamped circle has %d vertices, want 3", got)
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(Point{0, 0}, Point{2, 4})
	if m != (Point{1, 2}) {
		t.Errorf("midpoint = %v", m)
	}
}

func BenchmarkHaversine(b *testing.B) {
	p := Point{52.5, -1.9}
	q := Point{52.4, -1.5}
	for i := 0; i < b.N; i++ {
		_ = HaversineMeters(p, q)
	}
}

func BenchmarkEquirectangular(b *testing.B) {
	p := Point{52.5, -1.9}
	q := Point{52.4, -1.5}
	for i := 0; i < b.N; i++ {
		_ = DistanceMeters(p, q)
	}
}
