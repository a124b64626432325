// Package spatial provides a static in-memory k-d tree over geographic
// points, indexing opaque integer IDs supplied by the caller, with two
// queries: the nearest item (1-NN) and every item within a radius.
//
// The 1-NN query is the primitive behind the paper's interchange
// identification (Section IV-B1): for each leaf of an outbound transit-hop
// tree a 1-NN query is made against the leaves of an inbound tree.
package spatial

import (
	"math"
	"slices"
	"sort"

	"accessquery/internal/geo"
)

// Item is an indexed point with a caller-supplied identifier.
type Item struct {
	ID    int
	Point geo.Point
}

// KDTree is a static 2-dimensional k-d tree over geographic points.
// Distances are equirectangular meters (geo.DistanceMeters). The zero value
// is an empty tree; build one with NewKDTree.
type KDTree struct {
	nodes []kdNode
	root  int
	// maxAbsLat is the highest absolute latitude among indexed points; it
	// lower-bounds meters-per-degree of longitude across the region, keeping
	// the search's plane-distance prune admissible.
	maxAbsLat float64
}

type kdNode struct {
	item        Item
	left, right int // index into nodes, -1 when absent
	axis        uint8
}

// NewKDTree builds a balanced k-d tree over items. The input slice is copied
// and may be reused by the caller.
func NewKDTree(items []Item) *KDTree {
	t := &KDTree{root: -1}
	if len(items) == 0 {
		return t
	}
	buf := make([]Item, len(items))
	copy(buf, items)
	for _, it := range items {
		if a := math.Abs(it.Point.Lat); a > t.maxAbsLat {
			t.maxAbsLat = a
		}
	}
	t.nodes = make([]kdNode, 0, len(items))
	t.root = t.build(buf, 0)
	return t
}

// build recursively partitions items by the median along the current axis and
// returns the index of the subtree root.
func (t *KDTree) build(items []Item, depth int) int {
	if len(items) == 0 {
		return -1
	}
	axis := uint8(depth % 2)
	sort.Slice(items, func(i, j int) bool {
		return coord(items[i].Point, axis) < coord(items[j].Point, axis)
	})
	mid := len(items) / 2
	idx := len(t.nodes)
	t.nodes = append(t.nodes, kdNode{item: items[mid], axis: axis, left: -1, right: -1})
	left := t.build(items[:mid], depth+1)
	right := t.build(items[mid+1:], depth+1)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

func coord(p geo.Point, axis uint8) float64 {
	if axis == 0 {
		return p.Lat
	}
	return p.Lon
}

// Len returns the number of indexed items.
func (t *KDTree) Len() int { return len(t.nodes) }

// Neighbor is a query result: the indexed item and its distance in meters.
type Neighbor struct {
	Item   Item
	Meters float64
}

// Nearest returns the single nearest item to q, or ok=false when the tree is
// empty. It carries the best candidate on the stack, so hot loops (one 1-NN
// probe per hop-tree leaf) never allocate.
func (t *KDTree) Nearest(q geo.Point) (Neighbor, bool) {
	if t.root < 0 {
		return Neighbor{}, false
	}
	best := Neighbor{Meters: math.Inf(1)}
	t.search1(t.root, q, &best)
	return best, true
}

func (t *KDTree) search1(idx int, q geo.Point, best *Neighbor) {
	if idx < 0 {
		return
	}
	n := &t.nodes[idx]
	if d := geo.DistanceMeters(q, n.item.Point); d < best.Meters {
		*best = Neighbor{Item: n.item, Meters: d}
	}
	diff := coord(q, n.axis) - coord(n.item.Point, n.axis)
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	t.search1(near, q, best)
	// Prune: only descend the far side if the splitting plane is closer than
	// the best distance so far, using a lower bound on the plane's distance
	// in meters so the prune never discards a true neighbour.
	if math.Abs(diff)*t.minMetersPerDegree(n.axis, q) < best.Meters {
		t.search1(far, q, best)
	}
}

// minMetersPerDegree returns a lower bound on meters per degree along the
// given axis anywhere in the indexed region (and at the query point). For
// latitude this is a global constant; for longitude it shrinks with the
// cosine of the highest latitude in play.
func (t *KDTree) minMetersPerDegree(axis uint8, q geo.Point) float64 {
	const latLower = 110500.0 // true value ranges 110574..111694 m/deg
	if axis == 0 {
		return latLower
	}
	lat := t.maxAbsLat
	if a := math.Abs(q.Lat); a > lat {
		lat = a
	}
	c := math.Cos((lat + 0.01) * math.Pi / 180)
	if c < 0 {
		c = 0
	}
	return latLower * c
}

// WithinRadius returns all items within radiusMeters of q, ordered by
// ascending distance.
func (t *KDTree) WithinRadius(q geo.Point, radiusMeters float64) []Neighbor {
	if t.root < 0 || radiusMeters < 0 {
		return nil
	}
	dst := t.collectWithin(t.root, nil, q, radiusMeters)
	slices.SortFunc(dst, func(a, b Neighbor) int {
		switch {
		case a.Meters < b.Meters:
			return -1
		case a.Meters > b.Meters:
			return 1
		default:
			return 0
		}
	})
	return dst
}

func (t *KDTree) collectWithin(idx int, dst []Neighbor, q geo.Point, radiusMeters float64) []Neighbor {
	if idx < 0 {
		return dst
	}
	n := &t.nodes[idx]
	if d := geo.DistanceMeters(q, n.item.Point); d <= radiusMeters {
		dst = append(dst, Neighbor{Item: n.item, Meters: d})
	}
	diff := coord(q, n.axis) - coord(n.item.Point, n.axis)
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	dst = t.collectWithin(near, dst, q, radiusMeters)
	if math.Abs(diff)*t.minMetersPerDegree(n.axis, q) <= radiusMeters {
		dst = t.collectWithin(far, dst, q, radiusMeters)
	}
	return dst
}
