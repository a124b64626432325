package spatial

import (
	"math"
	"math/rand"
	"testing"

	"accessquery/internal/geo"
)

var center = geo.Point{Lat: 52.48, Lon: -1.89}

// randomItems returns n items scattered within +-spread meters of center.
func randomItems(rng *rand.Rand, n int, spread float64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID:    i,
			Point: geo.Offset(center, (rng.Float64()-0.5)*2*spread, (rng.Float64()-0.5)*2*spread),
		}
	}
	return items
}

// bruteNearest is the reference 1-NN distance tests compare against.
func bruteNearest(items []Item, q geo.Point) float64 {
	best := math.Inf(1)
	for _, it := range items {
		best = math.Min(best, geo.DistanceMeters(q, it.Point))
	}
	return best
}

func TestKDTreeEmpty(t *testing.T) {
	tr := NewKDTree(nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Nearest(center); ok {
		t.Error("Nearest on empty tree should report !ok")
	}
	if res := tr.WithinRadius(center, 100); res != nil {
		t.Errorf("WithinRadius on empty tree = %v", res)
	}
}

func TestKDTreeSingle(t *testing.T) {
	it := Item{ID: 42, Point: center}
	tr := NewKDTree([]Item{it})
	n, ok := tr.Nearest(geo.Offset(center, 100, 100))
	if !ok || n.Item.ID != 42 {
		t.Fatalf("Nearest = %+v ok=%v", n, ok)
	}
	if math.Abs(n.Meters-math.Hypot(100, 100)) > 2 {
		t.Errorf("distance = %f", n.Meters)
	}
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		items := randomItems(rng, n, 10000)
		tr := NewKDTree(items)
		for qi := 0; qi < 20; qi++ {
			q := geo.Offset(center, (rng.Float64()-0.5)*25000, (rng.Float64()-0.5)*25000)
			got, ok := tr.Nearest(q)
			if !ok {
				t.Fatal("Nearest on a non-empty tree reported !ok")
			}
			if want := bruteNearest(items, q); math.Abs(got.Meters-want) > 1e-6 {
				t.Fatalf("trial %d: nearest distance %f, want %f", trial, got.Meters, want)
			}
			if d := geo.DistanceMeters(q, items[got.Item.ID].Point); d != got.Meters {
				t.Fatalf("trial %d: item %d is %f m away, reported %f", trial, got.Item.ID, d, got.Meters)
			}
		}
	}
}

func TestKDTreeWithinRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 400, 8000)
	tr := NewKDTree(items)
	for trial := 0; trial < 20; trial++ {
		q := geo.Offset(center, (rng.Float64()-0.5)*16000, (rng.Float64()-0.5)*16000)
		r := rng.Float64() * 5000
		got := tr.WithinRadius(q, r)
		var want int
		for _, it := range items {
			if geo.DistanceMeters(q, it.Point) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("WithinRadius count = %d, want %d", len(got), want)
		}
		for i, nb := range got {
			if nb.Meters > r {
				t.Fatalf("result %d beyond radius: %f > %f", i, nb.Meters, r)
			}
			if i > 0 && nb.Meters < got[i-1].Meters {
				t.Fatal("results not sorted")
			}
		}
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	items := []Item{
		{ID: 1, Point: center}, {ID: 2, Point: center}, {ID: 3, Point: center},
		{ID: 4, Point: geo.Offset(center, 500, 0)},
	}
	tr := NewKDTree(items)
	got, ok := tr.Nearest(center)
	if !ok || got.Meters != 0 || got.Item.ID == 4 {
		t.Errorf("Nearest = %+v, %v; want one of the three coincident items at 0 m", got, ok)
	}
	if n := len(tr.WithinRadius(center, 0)); n != 3 {
		t.Errorf("WithinRadius(0) found %d coincident items, want 3", n)
	}
}

func BenchmarkKDTreeNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng, 3000, 15000)
	tr := NewKDTree(items)
	queries := make([]geo.Point, 256)
	for i := range queries {
		queries[i] = geo.Offset(center, (rng.Float64()-0.5)*30000, (rng.Float64()-0.5)*30000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tr.Nearest(queries[i%len(queries)])
	}
}
