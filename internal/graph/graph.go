// Package graph implements the road-network graph G(N, E) from the paper's
// preliminaries: an undirected weighted graph over geographic nodes, with
// Dijkstra single-source distances (binary heap), bounded single-source
// exploration (the primitive behind walking isochrones), and
// connected-component analysis.
//
// Edge weights are traversal times in seconds at a reference walking speed;
// the router layers transit on top of this graph.
package graph

import (
	"container/heap"
	"fmt"
	"math"

	"accessquery/internal/geo"
)

// NodeID identifies a node within a Graph. IDs are dense indices assigned by
// AddNode in insertion order.
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Node is a graph vertex with a geographic location.
type Node struct {
	ID    NodeID
	Point geo.Point
}

// edge is a half-edge in the adjacency list.
type edge struct {
	to      NodeID
	seconds float64
}

// Graph is an undirected weighted graph. The zero value is an empty graph
// ready to use.
type Graph struct {
	nodes []Node
	adj   [][]edge
	edges int
}

// New returns an empty graph with capacity hints.
func New(nodeHint int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, nodeHint),
		adj:   make([][]edge, 0, nodeHint),
	}
}

// AddNode inserts a node at p and returns its ID.
func (g *Graph) AddNode(p geo.Point) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Point: p})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge inserts an undirected edge between a and b with the given traversal
// time in seconds. It returns an error if either endpoint does not exist or
// the weight is not a non-negative finite number.
func (g *Graph) AddEdge(a, b NodeID, seconds float64) error {
	if !g.has(a) || !g.has(b) {
		return fmt.Errorf("graph: edge (%d,%d) references missing node", a, b)
	}
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", a, b, seconds)
	}
	g.adj[a] = append(g.adj[a], edge{to: b, seconds: seconds})
	g.adj[b] = append(g.adj[b], edge{to: a, seconds: seconds})
	g.edges++
	return nil
}

func (g *Graph) has(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Point returns the location of id, or the zero point if id is invalid.
func (g *Graph) Point(id NodeID) geo.Point {
	if !g.has(id) {
		return geo.Point{}
	}
	return g.nodes[id].Point
}

// Neighbors calls fn for every edge leaving id.
func (g *Graph) Neighbors(id NodeID, fn func(to NodeID, seconds float64)) {
	if !g.has(id) {
		return
	}
	for _, e := range g.adj[id] {
		fn(e.to, e.seconds)
	}
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Explore runs single-source Dijkstra from src, bounded by maxSeconds, and
// returns the travel time to every node reached within the bound. The result
// maps node ID to seconds and always contains src with cost 0.
func (g *Graph) Explore(src NodeID, maxSeconds float64) (map[NodeID]float64, error) {
	if !g.has(src) {
		return nil, fmt.Errorf("graph: invalid source %d", src)
	}
	dist := make(map[NodeID]float64)
	dist[src] = 0
	q := pq{{node: src}}
	for q.Len() > 0 {
		cur := heap.Pop(&q).(pqItem)
		if d, ok := dist[cur.node]; ok && cur.dist > d {
			continue
		}
		for _, e := range g.adj[cur.node] {
			nd := cur.dist + e.seconds
			if nd > maxSeconds {
				continue
			}
			if d, ok := dist[e.to]; !ok || nd < d {
				dist[e.to] = nd
				heap.Push(&q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, nil
}

// Components returns the connected components of the graph as slices of node
// IDs, largest first.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, len(g.nodes))
	var comps [][]NodeID
	var stack []NodeID
	for start := range g.nodes {
		if seen[start] {
			continue
		}
		var comp []NodeID
		stack = append(stack[:0], NodeID(start))
		seen[start] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for _, e := range g.adj[n] {
				if !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, e.to)
				}
			}
		}
		comps = append(comps, comp)
	}
	// Largest first (selection by simple sort).
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// NearestNode returns the graph node geographically closest to p by linear
// scan. It is intended for small graphs and tests; production callers index
// nodes with package spatial.
func (g *Graph) NearestNode(p geo.Point) NodeID {
	best := InvalidNode
	bestD := math.Inf(1)
	for _, n := range g.nodes {
		if d := geo.DistanceMeters(p, n.Point); d < bestD {
			bestD = d
			best = n.ID
		}
	}
	return best
}
