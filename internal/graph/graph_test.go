package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"accessquery/internal/geo"
)

var origin = geo.Point{Lat: 52.48, Lon: -1.89}

// AllDistances runs unbounded Dijkstra from src and returns the travel time
// to every reachable node as a dense slice indexed by NodeID; unreachable
// nodes hold +Inf. It is the unbounded reference ShortestPath and Explore
// are checked against.
func (g *Graph) AllDistances(src NodeID) ([]float64, error) {
	if !g.has(src) {
		return nil, fmt.Errorf("graph: invalid source %d", src)
	}
	dist := make([]float64, len(g.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := pq{{node: src}}
	for q.Len() > 0 {
		cur := heap.Pop(&q).(pqItem)
		if cur.dist > dist[cur.node] {
			continue
		}
		for _, e := range g.adj[cur.node] {
			if nd := cur.dist + e.seconds; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(&q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, nil
}

// line builds a path graph v0-v1-...-v(n-1) with the given edge weight.
func line(t *testing.T, n int, w float64) (*Graph, []NodeID) {
	t.Helper()
	g := New(n)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(geo.Offset(origin, float64(i)*100, 0))
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(ids[i], ids[i+1], w); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	a := g.AddNode(origin)
	b := g.AddNode(geo.Offset(origin, 100, 0))
	if err := g.AddEdge(a, b, 10); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		a, b NodeID
		w    float64
	}{
		{a, 99, 10},
		{-1, b, 10},
		{a, b, -1},
		{a, b, math.NaN()},
		{a, b, math.Inf(1)},
	}
	for _, c := range bad {
		if err := g.AddEdge(c.a, c.b, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) should fail", c.a, c.b, c.w)
		}
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestShortestPathLine(t *testing.T) {
	g, ids := line(t, 10, 30)
	dist, err := g.AllDistances(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if want := float64(30 * i); dist[id] != want {
			t.Errorf("distance to node %d = %v, want %v", i, dist[id], want)
		}
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g, ids := line(t, 3, 10)
	dist, err := g.AllDistances(ids[1])
	if err != nil || dist[ids[1]] != 0 {
		t.Errorf("self distance: %v err=%v", dist, err)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := New(2)
	a := g.AddNode(origin)
	b := g.AddNode(geo.Offset(origin, 1000, 0))
	dist, err := g.AllDistances(a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[b], 1) {
		t.Errorf("distance to a disconnected node = %v, want +Inf", dist[b])
	}
}

func TestShortestPathInvalidEndpoints(t *testing.T) {
	g, _ := line(t, 3, 10)
	for _, src := range []NodeID{99, -2} {
		if _, err := g.AllDistances(src); err == nil {
			t.Errorf("want error for invalid source %d", src)
		}
	}
}

func TestShortestPathPrefersCheaperRoute(t *testing.T) {
	// Triangle: a-b direct cost 100, a-c-b cost 30+30=60.
	g := New(3)
	a := g.AddNode(origin)
	b := g.AddNode(geo.Offset(origin, 200, 0))
	c := g.AddNode(geo.Offset(origin, 100, 100))
	for _, e := range []struct {
		u, v NodeID
		w    float64
	}{{a, b, 100}, {a, c, 30}, {c, b, 30}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := g.AllDistances(a)
	if err != nil {
		t.Fatal(err)
	}
	if dist[b] != 60 || dist[c] != 30 {
		t.Errorf("d(b) = %v, d(c) = %v; want 60 via c, and 30", dist[b], dist[c])
	}
}

func TestDijkstraMatchesBellmanFordOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(60)
		g := New(n)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(geo.Offset(origin, rng.Float64()*5000, rng.Float64()*5000))
		}
		type e struct {
			u, v int
			w    float64
		}
		var edges []e
		for i := 0; i < n*3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := rng.Float64() * 100
			edges = append(edges, e{u, v, w})
			if err := g.AddEdge(ids[u], ids[v], w); err != nil {
				t.Fatal(err)
			}
		}
		src := rng.Intn(n)
		got, err := g.AllDistances(ids[src])
		if err != nil {
			t.Fatal(err)
		}
		// Bellman-Ford reference (undirected: relax both directions).
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = math.Inf(1)
		}
		ref[src] = 0
		for iter := 0; iter < n; iter++ {
			changed := false
			for _, ed := range edges {
				if ref[ed.u]+ed.w < ref[ed.v] {
					ref[ed.v] = ref[ed.u] + ed.w
					changed = true
				}
				if ref[ed.v]+ed.w < ref[ed.u] {
					ref[ed.u] = ref[ed.v] + ed.w
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		for i := 0; i < n; i++ {
			if math.IsInf(ref[i], 1) != math.IsInf(got[i], 1) {
				t.Fatalf("reachability mismatch at %d", i)
			}
			if !math.IsInf(ref[i], 1) && math.Abs(ref[i]-got[i]) > 1e-9 {
				t.Fatalf("dist[%d] = %v, want %v", i, got[i], ref[i])
			}
		}
	}
}

func TestExploreBound(t *testing.T) {
	g, ids := line(t, 10, 30) // 0 --30-- 1 --30-- 2 ...
	dist, err := g.Explore(ids[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	// Reachable within 100s: nodes 0 (0), 1 (30), 2 (60), 3 (90).
	if len(dist) != 4 {
		t.Fatalf("explored %d nodes, want 4: %v", len(dist), dist)
	}
	if dist[ids[0]] != 0 || dist[ids[3]] != 90 {
		t.Errorf("wrong distances: %v", dist)
	}
	if _, ok := dist[ids[4]]; ok {
		t.Error("node 4 should be beyond the bound")
	}
}

func TestExploreZeroBudget(t *testing.T) {
	g, ids := line(t, 5, 10)
	dist, err := g.Explore(ids[2], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 1 || dist[ids[2]] != 0 {
		t.Errorf("zero-budget explore = %v", dist)
	}
}

func TestExploreInvalidSource(t *testing.T) {
	g, _ := line(t, 3, 10)
	if _, err := g.Explore(50, 100); err == nil {
		t.Error("want error for invalid source")
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	var ids []NodeID
	for i := 0; i < 7; i++ {
		ids = append(ids, g.AddNode(geo.Offset(origin, float64(i)*50, 0)))
	}
	// Component 1: 0-1-2-3, component 2: 4-5, component 3: {6}.
	mustEdge := func(a, b NodeID) {
		t.Helper()
		if err := g.AddEdge(a, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(ids[0], ids[1])
	mustEdge(ids[1], ids[2])
	mustEdge(ids[2], ids[3])
	mustEdge(ids[4], ids[5])
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 4 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes %d,%d,%d want 4,2,1",
			len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestComponentsEmpty(t *testing.T) {
	if comps := New(0).Components(); comps != nil {
		t.Errorf("components of empty graph = %v", comps)
	}
}

func TestNearestNode(t *testing.T) {
	g := New(3)
	g.AddNode(origin)
	far := g.AddNode(geo.Offset(origin, 5000, 0))
	q := geo.Offset(origin, 4900, 10)
	if got := g.NearestNode(q); got != far {
		t.Errorf("NearestNode = %d, want %d", got, far)
	}
	if got := New(0).NearestNode(q); got != InvalidNode {
		t.Errorf("NearestNode on empty graph = %d", got)
	}
}

func TestNeighbors(t *testing.T) {
	g, ids := line(t, 3, 5)
	var seen int
	g.Neighbors(ids[1], func(to NodeID, s float64) {
		seen++
		if s != 5 {
			t.Errorf("weight %v", s)
		}
	})
	if seen != 2 {
		t.Errorf("visited %d neighbors", seen)
	}
	g.Neighbors(99, func(NodeID, float64) { t.Error("invalid node has no neighbors") })
}

func TestNodeAccessors(t *testing.T) {
	g := New(1)
	id := g.AddNode(origin)
	if p := g.Point(id); p != origin || g.NumNodes() != 1 {
		t.Errorf("Point(%d) = %v, NumNodes = %d", id, p, g.NumNodes())
	}
	if p := g.Point(5); p != (geo.Point{}) {
		t.Errorf("Point(5) = %v", p)
	}
}

func BenchmarkAllDistancesGrid(b *testing.B) {
	// 50x50 grid graph.
	const side = 50
	g := New(side * side)
	ids := make([]NodeID, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			ids[y*side+x] = g.AddNode(geo.Offset(origin, float64(x)*100, float64(y)*100))
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				_ = g.AddEdge(ids[y*side+x], ids[y*side+x+1], 60)
			}
			if y+1 < side {
				_ = g.AddEdge(ids[y*side+x], ids[(y+1)*side+x], 60)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.AllDistances(ids[0]); err != nil {
			b.Fatal(err)
		}
	}
}
