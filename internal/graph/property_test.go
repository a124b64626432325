package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"accessquery/internal/geo"
)

// randomConnectedGraph builds a connected random graph: a spanning chain
// plus extra random edges.
func randomConnectedGraph(rng *rand.Rand, n int) (*Graph, []NodeID) {
	g := New(n)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(geo.Offset(origin, rng.Float64()*5000, rng.Float64()*5000))
	}
	for i := 0; i+1 < n; i++ {
		_ = g.AddEdge(ids[i], ids[i+1], 1+rng.Float64()*100)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(ids[u], ids[v], 1+rng.Float64()*100)
		}
	}
	return g, ids
}

// TestShortestPathTriangleInequalityProperty: d(a,c) <= d(a,b) + d(b,c)
// for random graphs and vertex triples.
func TestShortestPathTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g, ids := randomConnectedGraph(rng, n)
		a, b, c := ids[rng.Intn(n)], ids[rng.Intn(n)], ids[rng.Intn(n)]
		da, err := g.AllDistances(a)
		if err != nil {
			return false
		}
		db, err := g.AllDistances(b)
		if err != nil {
			return false
		}
		return da[c] <= da[b]+db[c]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestShortestPathSymmetryProperty: undirected graphs give d(a,b) = d(b,a).
func TestShortestPathSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g, ids := randomConnectedGraph(rng, n)
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		da, err := g.AllDistances(a)
		if err != nil {
			return false
		}
		db, err := g.AllDistances(b)
		if err != nil {
			return false
		}
		return math.Abs(da[b]-db[a]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPathCostMatchesEdgeSumProperty: every reported distance is the edge
// sum of a real path. Walking back from b through neighbours u with
// d(u) + w(u, b) = d(b) reaches a, and the edges walked sum to d(b).
func TestPathCostMatchesEdgeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g, ids := randomConnectedGraph(rng, n)
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		dist, err := g.AllDistances(a)
		if err != nil {
			return false
		}
		var sum float64
		for at, steps := b, 0; at != a; steps++ {
			if steps == n {
				return false // no tight chain back to the source
			}
			prev, w := InvalidNode, 0.0
			g.Neighbors(at, func(to NodeID, s float64) {
				if prev == InvalidNode && dist[to] < dist[at] && math.Abs(dist[to]+s-dist[at]) < 1e-9 {
					prev, w = to, s
				}
			})
			if prev == InvalidNode {
				return false // the distance is not realised by any edge
			}
			sum += w
			at = prev
		}
		return math.Abs(sum-dist[b]) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExploreSubsetOfAllDistancesProperty: bounded exploration agrees with
// the unbounded distances wherever it reaches.
func TestExploreSubsetOfAllDistancesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g, ids := randomConnectedGraph(rng, n)
		src := ids[rng.Intn(n)]
		bound := rng.Float64() * 200
		explored, err := g.Explore(src, bound)
		if err != nil {
			return false
		}
		full, err := g.AllDistances(src)
		if err != nil {
			return false
		}
		for node, d := range explored {
			if d > bound+1e-9 {
				return false
			}
			if math.Abs(full[node]-d) > 1e-9 {
				return false
			}
		}
		// Conversely every node within the bound must be explored.
		for i, d := range full {
			if d <= bound {
				if _, ok := explored[NodeID(i)]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
