package isochrone

import (
	"reflect"
	"testing"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
)

var base = geo.Point{Lat: 52.45, Lon: -1.9}

// gridWorld builds a (2n+1)x(2n+1) road grid centered on base with the given
// spacing in meters and walking time per edge.
func gridWorld(t *testing.T, n int, spacing, edgeSeconds float64) (*graph.Graph, graph.NodeID) {
	t.Helper()
	g := graph.New((2*n + 1) * (2*n + 1))
	ids := make(map[[2]int]graph.NodeID)
	for y := -n; y <= n; y++ {
		for x := -n; x <= n; x++ {
			ids[[2]int{x, y}] = g.AddNode(geo.Offset(base, float64(x)*spacing, float64(y)*spacing))
		}
	}
	for y := -n; y <= n; y++ {
		for x := -n; x <= n; x++ {
			if x+1 <= n {
				if err := g.AddEdge(ids[[2]int{x, y}], ids[[2]int{x + 1, y}], edgeSeconds); err != nil {
					t.Fatal(err)
				}
			}
			if y+1 <= n {
				if err := g.AddEdge(ids[[2]int{x, y}], ids[[2]int{x, y + 1}], edgeSeconds); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, ids[[2]int{0, 0}]
}

func TestComputeBasic(t *testing.T) {
	g, center := gridWorld(t, 5, 100, 80) // 80s per 100m edge
	iso, err := Compute(g, base, center, 600)
	if err != nil {
		t.Fatal(err)
	}
	// 600s at 80s/edge: Manhattan radius 7 edges, clipped to grid size 5.
	// Node (3,3) costs 480s; (5,3) costs 640s > 600.
	if len(iso.NodeIDs) == 0 {
		t.Fatal("empty walkshed")
	}
	for _, sec := range iso.NodeSeconds {
		if sec > 600 {
			t.Errorf("node beyond tau: %f", sec)
		}
	}
	if !iso.Contains(base) {
		t.Error("isochrone should contain its origin")
	}
	// A point ~1 km away is well outside (max walk 600/80*100 = 750 m).
	if iso.Contains(geo.Offset(base, 1000, 1000)) {
		t.Error("isochrone should not contain far point")
	}
}

func TestComputeManhattanCount(t *testing.T) {
	g, center := gridWorld(t, 10, 100, 100) // 100s per edge
	iso, err := Compute(g, base, center, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Manhattan ball of radius 3: 1 + 4 + 8 + 12 = 25 nodes.
	if len(iso.NodeIDs) != 25 {
		t.Errorf("walkshed has %d nodes, want 25", len(iso.NodeIDs))
	}
}

func TestComputeNegativeTau(t *testing.T) {
	g, center := gridWorld(t, 2, 100, 100)
	if _, err := Compute(g, base, center, -1); err == nil {
		t.Error("negative tau should fail")
	}
}

func TestComputeInvalidNode(t *testing.T) {
	g, _ := gridWorld(t, 2, 100, 100)
	if _, err := Compute(g, base, 9999, 600); err == nil {
		t.Error("invalid node should fail")
	}
}

func TestDegenerateWalkshedFallsBackToCircle(t *testing.T) {
	// A graph with one isolated node: hull degenerates to the walking
	// circle.
	g := graph.New(1)
	n := g.AddNode(base)
	iso, err := Compute(g, base, n, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !iso.Contains(base) {
		t.Error("degenerate isochrone should contain origin")
	}
	// Crow-flight radius is 600 / 0.8 = 750 m; a 600 m point is inside.
	if !iso.Contains(geo.Offset(base, 600, 0)) {
		t.Error("point within walking circle should be inside")
	}
	if iso.Contains(geo.Offset(base, 2000, 0)) {
		t.Error("point beyond walking circle should be outside")
	}
}

func TestIntersects(t *testing.T) {
	g, center := gridWorld(t, 10, 100, 80)
	isoA, err := Compute(g, base, center, 600)
	if err != nil {
		t.Fatal(err)
	}
	// Another isochrone centered 400 m east: overlaps.
	eastNode := g.NearestNode(geo.Offset(base, 400, 0))
	isoB, err := Compute(g, geo.Offset(base, 400, 0), eastNode, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !isoA.Intersects(isoB) || !isoB.Intersects(isoA) {
		t.Error("nearby walksheds should intersect")
	}
	// Far isochrone on an isolated single-node graph.
	far := geo.Offset(base, 50000, 0)
	g2 := graph.New(1)
	n2 := g2.AddNode(far)
	isoC, err := Compute(g2, far, n2, 600)
	if err != nil {
		t.Fatal(err)
	}
	if isoA.Intersects(isoC) {
		t.Error("distant walksheds should not intersect")
	}
	if isoA.Intersects(nil) {
		t.Error("nil walkshed should not intersect")
	}
}

func TestComputeSet(t *testing.T) {
	g, center := gridWorld(t, 5, 100, 80)
	east := g.NearestNode(geo.Offset(base, 300, 0))
	origins := []geo.Point{base, geo.Offset(base, 300, 0)}
	nodes := []graph.NodeID{center, east}
	set, err := ComputeSetParallel(g, origins, nodes, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Isochrones) != 2 {
		t.Fatalf("set size %d", len(set.Isochrones))
	}
	if set.For(0) == nil || set.For(1) == nil {
		t.Error("set entries missing")
	}
	if set.For(-1) != nil || set.For(2) != nil {
		t.Error("out-of-range For should be nil")
	}
}

func TestComputeSetLengthMismatch(t *testing.T) {
	g, center := gridWorld(t, 2, 100, 80)
	_, err := ComputeSetParallel(g, []geo.Point{base}, []graph.NodeID{center, center}, 600, 1)
	if err == nil {
		t.Error("mismatched lengths should fail")
	}
}

func BenchmarkCompute(b *testing.B) {
	g := graph.New(2000)
	ids := make(map[[2]int]graph.NodeID)
	const n = 20
	for y := -n; y <= n; y++ {
		for x := -n; x <= n; x++ {
			ids[[2]int{x, y}] = g.AddNode(geo.Offset(base, float64(x)*100, float64(y)*100))
		}
	}
	for y := -n; y <= n; y++ {
		for x := -n; x <= n; x++ {
			if x+1 <= n {
				_ = g.AddEdge(ids[[2]int{x, y}], ids[[2]int{x + 1, y}], 80)
			}
			if y+1 <= n {
				_ = g.AddEdge(ids[[2]int{x, y}], ids[[2]int{x, y + 1}], 80)
			}
		}
	}
	center := ids[[2]int{0, 0}]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, base, center, 600); err != nil {
			b.Fatal(err)
		}
	}
}

func TestComputeSetParallelMatchesSerial(t *testing.T) {
	g, center := gridWorld(t, 6, 100, 80)
	var origins []geo.Point
	var nodes []graph.NodeID
	for _, dx := range []float64{0, 150, 300, -250, 480, -90, 210} {
		p := geo.Offset(base, dx, dx/3)
		origins = append(origins, p)
		nodes = append(nodes, g.NearestNode(p))
	}
	nodes[0] = center
	serial, err := ComputeSetParallel(g, origins, nodes, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		parallel, err := ComputeSetParallel(g, origins, nodes, 600, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("workers=%d: parallel set differs from serial", workers)
		}
	}
}

func TestComputeSetParallelPropagatesError(t *testing.T) {
	g, center := gridWorld(t, 2, 100, 80)
	origins := []geo.Point{base, base}
	nodes := []graph.NodeID{center, graph.NodeID(10_000)} // invalid node
	if _, err := ComputeSetParallel(g, origins, nodes, 600, 4); err == nil {
		t.Error("invalid origin node should fail in parallel mode")
	}
}
