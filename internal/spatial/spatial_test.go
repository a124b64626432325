package spatial

import (
	"math"
	"math/rand"
	"sort"
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

// bruteKNN is the reference k-NN implementation tests compare against.
func bruteKNN(items []Item, q geo.Point, k int) []Neighbor {
	all := make([]Neighbor, len(items))
	for i, it := range items {
		all[i] = Neighbor{Item: it, Meters: geo.DistanceMeters(q, it.Point)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Meters < all[j].Meters })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestKDTreeEmpty(t *testing.T) {
	tr := NewKDTree(nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Nearest(center); ok {
		t.Error("Nearest on empty tree should report !ok")
	}
	if res := tr.KNearest(center, 5); res != nil {
		t.Errorf("KNearest on empty tree = %v", res)
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
			k := 1 + rng.Intn(8)
			got := tr.KNearest(q, k)
			want := bruteKNN(items, q, k)
			if len(got) != len(want) {
				t.Fatalf("result size %d, want %d", len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Meters-want[i].Meters) > 1e-6 {
					t.Fatalf("trial %d: kth distance %f, want %f", trial, got[i].Meters, want[i].Meters)
				}
			}
		}
	}
}

func TestKDTreeKLargerThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randomItems(rng, 5, 1000)
	tr := NewKDTree(items)
	got := tr.KNearest(center, 50)
	if len(got) != 5 {
		t.Errorf("got %d results, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Meters < got[i-1].Meters {
			t.Error("results not sorted by distance")
		}
	}
}

func TestKDTreeKZeroOrNegative(t *testing.T) {
	tr := NewKDTree(randomItems(rand.New(rand.NewSource(4)), 10, 1000))
	if res := tr.KNearest(center, 0); res != nil {
		t.Errorf("k=0 returned %v", res)
	}
	if res := tr.KNearest(center, -3); res != nil {
		t.Errorf("k=-3 returned %v", res)
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
	got := tr.KNearest(center, 3)
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	for _, nb := range got {
		if nb.Meters != 0 {
			t.Errorf("expected zero distance, got %f (id %d)", nb.Meters, nb.Item.ID)
		}
	}
}

func BenchmarkKDTreeKNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng, 3000, 15000)
	tr := NewKDTree(items)
	queries := make([]geo.Point, 256)
	for i := range queries {
		queries[i] = geo.Offset(center, (rng.Float64()-0.5)*30000, (rng.Float64()-0.5)*30000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.KNearest(queries[i%len(queries)], 1)
	}
}
