package router

import (
	"container/heap"
	"math/rand"
	"testing"

	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
)

// relaxationsOf runs fn and returns how many relaxation attempts it made.
func relaxationsOf(fn func()) int64 {
	before := mRelaxations.Value()
	fn()
	return mRelaxations.Value() - before
}

// TestProfileToEqualsProfileFrom is the bounded search's contract: for
// every target, the journey (all nine fields) and reachability are the
// exhaustive search's, and when every target is reachable the search did
// no more work — strictly less under the default horizon; under the short
// one the last target can be the last node either search settles. The
// short-horizon router supplies unreachable targets, which must push the
// bounded search to exhaustion.
func TestProfileToEqualsProfileFrom(t *testing.T) {
	c, ix, def := cityWorld(t)
	short, err := New(c.Road, ix, c.StopNode, Options{MaxJourney: 1200})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	n := c.Road.NumNodes()
	randomNode := func() graph.NodeID { return graph.NodeID(rng.Intn(n)) }
	sawUnreachable, sawBounded := false, false
	for _, r := range []*Router{def, short} {
		for i := 0; i < 20; i++ {
			origin := c.ZoneNode[rng.Intn(len(c.ZoneNode))]
			if i%2 == 1 {
				origin = randomNode()
			}
			for _, depart := range []gtfs.Seconds{7*3600 + 13, 8 * 3600, 21*3600 + 30*60} {
				var full *Profile
				fullRelaxed := relaxationsOf(func() {
					if full, err = r.ProfileFrom(origin, depart); err != nil {
						t.Fatal(err)
					}
				})
				var unreachable []graph.NodeID
				for v := 0; v < n; v++ {
					if !full.Reached(graph.NodeID(v)) {
						unreachable = append(unreachable, graph.NodeID(v))
					}
				}
				twice := randomNode()
				sets := [][]graph.NodeID{
					{},
					{origin},
					{twice, randomNode(), twice},
					{randomNode()},
				}
				many := make([]graph.NodeID, 2+rng.Intn(12))
				for k := range many {
					many[k] = randomNode()
				}
				sets = append(sets, many)
				if len(unreachable) > 0 {
					sets = append(sets, []graph.NodeID{randomNode(), unreachable[rng.Intn(len(unreachable))]})
				}
				for _, targets := range sets {
					var p *Profile
					relaxed := relaxationsOf(func() {
						if p, err = r.ProfileTo(origin, depart, targets); err != nil {
							t.Fatal(err)
						}
					})
					allReached := true
					for _, tg := range targets {
						wantJ, wantOK := full.Journey(tg)
						gotJ, gotOK := p.Journey(tg)
						if gotOK != wantOK || gotJ != wantJ {
							t.Fatalf("origin %d depart %d targets %v: target %d = %+v, %v; exhaustive search %+v, %v",
								origin, depart, targets, tg, gotJ, gotOK, wantJ, wantOK)
						}
						if p.Reached(tg) != full.Reached(tg) {
							t.Fatalf("origin %d depart %d target %d: Reached differs", origin, depart, tg)
						}
						allReached = allReached && wantOK
					}
					switch {
					case len(targets) == 0 && relaxed != 0:
						t.Errorf("origin %d depart %d: %d relaxations for an empty target set", origin, depart, relaxed)
					case allReached && (relaxed > fullRelaxed || r == def && relaxed == fullRelaxed):
						t.Errorf("origin %d depart %d targets %v: %d relaxations, exhaustive search %d",
							origin, depart, targets, relaxed, fullRelaxed)
					case !allReached && relaxed != fullRelaxed:
						t.Errorf("origin %d depart %d targets %v (one unreachable): %d relaxations, exhaustion takes %d",
							origin, depart, targets, relaxed, fullRelaxed)
					}
					sawUnreachable = sawUnreachable || !allReached
					sawBounded = sawBounded || (allReached && len(targets) > 0)
					p.Release()
				}
				full.Release()
			}
		}
	}
	if !sawUnreachable || !sawBounded {
		t.Fatalf("cases not covered: unreachable target %v, reachable target set %v", sawUnreachable, sawBounded)
	}
}

func TestProfileToInvalidTarget(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	for _, bad := range []graph.NodeID{graph.InvalidNode, graph.NodeID(s.road.NumNodes())} {
		if _, err := r.ProfileTo(s.nodes[0], 8*3600, []graph.NodeID{s.nodes[1], bad}); err == nil {
			t.Errorf("target %d accepted", bad)
		}
	}
}

// TestProfileNegativeNode: graph.InvalidNode — what the engine welds a POI
// with no road node to — reads as unreached on a live profile and on a
// released one, instead of indexing labels[-1].
func TestProfileNegativeNode(t *testing.T) {
	s := buildScenario(t)
	r := newRouter(t, s)
	p, err := r.ProfileFrom(s.nodes[0], 8*3600)
	if err != nil {
		t.Fatal(err)
	}
	for _, released := range []bool{false, true} {
		if released {
			p.Release()
		}
		if p.Reached(graph.InvalidNode) {
			t.Errorf("released=%v: InvalidNode reported reached", released)
		}
		if j, ok := p.Journey(graph.InvalidNode); ok || j != (Journey{}) {
			t.Errorf("released=%v: Journey(InvalidNode) = %+v, %v", released, j, ok)
		}
	}
}

// TestHeapPopsLikeContainerHeap drives the hand-written push/pop and
// container/heap's Push/Pop over the same element type through identical
// scripts with few distinct arrival times: the pop sequences — including
// which of several equal arrivals comes out first — must be the same,
// because the search's tie-breaking is the pop order.
func TestHeapPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for script := 0; script < 1000; script++ {
		var mine pq
		var ref refPQ
		steps := 1 + rng.Intn(200)
		distinct := 1 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				got, want := mine.pop(), heap.Pop(&ref).(pqItem)
				if got != want {
					t.Fatalf("script %d step %d: popped %+v, container/heap %+v", script, step, got, want)
				}
				continue
			}
			it := pqItem{node: graph.NodeID(step), arrive: gtfs.Seconds(rng.Intn(distinct))}
			mine.push(it)
			heap.Push(&ref, it)
		}
		for len(ref) > 0 {
			if got, want := mine.pop(), heap.Pop(&ref).(pqItem); got != want {
				t.Fatalf("script %d drain: popped %+v, container/heap %+v", script, got, want)
			}
		}
		if len(mine) != 0 {
			t.Fatalf("script %d: %d items left", script, len(mine))
		}
	}
}

// TestBoundedProfileAllocs pins the steady-state search to the Profile
// handle: a warm ProfileTo allocates exactly that one object. (AllocsPerRun
// divides whole allocations by runs, so one pooled arena lost to a GC
// cycle among 50 searches does not move the bounded count; the exhaustive
// one over 20 keeps a slack of one.)
func TestBoundedProfileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled arenas under the race detector")
	}
	c, _, r := cityWorld(t)
	targets := []graph.NodeID{c.ZoneNode[3], c.ZoneNode[7], c.ZoneNode[11]}
	run := func() {
		p, err := r.ProfileTo(c.ZoneNode[0], 8*3600, targets)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	run() // size the arena
	if allocs := testing.AllocsPerRun(50, run); allocs != 1 {
		t.Errorf("bounded profile: %.1f allocs per search, want 1 (the Profile handle)", allocs)
	}
	full := func() {
		p, err := r.ProfileFrom(c.ZoneNode[0], 8*3600)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	full()
	if allocs := testing.AllocsPerRun(20, full); allocs > 2 {
		t.Errorf("exhaustive profile: %.1f allocs per search, want <= 2", allocs)
	}
}
