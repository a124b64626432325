package features

import (
	"math"
	"sync"
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
)

// allDests lists every POI of every category of the fixture city, with the
// zone the engine would associate it with.
func allDests(w *worldFixture) []pairDest {
	var out []pairDest
	for _, pois := range w.city.POIs {
		pts := make([]geo.Point, len(pois))
		for j, p := range pois {
			pts[j] = p.Point
		}
		for j, z := range assignZones(w.zones, pts) {
			out = append(out, pairDest{pt: pts[j], zone: z})
		}
	}
	return out
}

// scratchRows computes every (origin, destination) vector on a fresh
// extractor straight through computePair: the table is never consulted, so
// these are what a from-scratch computation over the forest gives.
func scratchRows(t *testing.T, forest *hoptree.Forest, w *worldFixture, dests []pairDest) [][]float64 {
	t.Helper()
	e, err := NewExtractor(forest, w.zones, w.isos, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := new(Scratch)
	rows := make([][]float64, 0, len(w.zones)*len(dests))
	for origin := range w.zones {
		for _, d := range dests {
			v := make([]float64, Dim)
			e.computePair(v, origin, d.pt, d.zone, s)
			rows = append(rows, v)
		}
	}
	return rows
}

func sameBits(a, b []float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestPairTableServesComputedRows: with eight goroutines filling and
// reading one cold extractor's pair table at once (run under -race), every
// vector of every (origin, POI) of every category is bit-for-bit the
// from-scratch one, on the filling pass and on the all-hits pass after it.
func TestPairTableServesComputedRows(t *testing.T) {
	w := fixture(t)
	dests := allDests(w)
	want := scratchRows(t, w.forest, w, dests)
	e := newExtractor(t)
	nz, nd := len(w.zones), len(dests)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := new(Scratch)
			got := make([]float64, Dim)
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < nz*nd; i++ {
					// Each goroutine starts elsewhere, so first touches collide.
					at := (i + g*nz*nd/goroutines) % (nz * nd)
					origin, d := at/nd, dests[at%nd]
					if err := e.PairVectorInto(got, origin, d.pt, d.zone, s); err != nil {
						t.Error(err)
						return
					}
					if !sameBits(got, want[at]) {
						t.Errorf("pass %d origin %d dest %+v: table %v, computed %v", pass, origin, d, got, want[at])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	hits0, misses0 := e.CacheStats()
	s := new(Scratch)
	got := make([]float64, Dim)
	for at := range want {
		if err := e.PairVectorInto(got, at/nd, dests[at%nd].pt, dests[at%nd].zone, s); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := e.CacheStats(); misses != misses0 || hits-hits0 != int64(len(want)) {
		t.Errorf("warm pass: %d hits and %d misses for %d rows", hits-hits0, misses-misses0, len(want))
	}
}

// TestSeedFromCarriesPairRows closes one route, rebuilds the hop trees of
// the zones that can see its stops, and seeds a new extractor from a warm
// one: every row the seed kept equals the from-scratch row on the mutated
// forest, and no row whose origin or destination zone was rebuilt was kept.
func TestSeedFromCarriesPairRows(t *testing.T) {
	w := fixture(t)
	dests := allDests(w)
	src := newExtractor(t)
	s := new(Scratch)
	buf := make([]float64, Dim)
	for origin := range w.zones {
		for _, d := range dests {
			if err := src.PairVectorInto(buf, origin, d.pt, d.zone, s); err != nil {
				t.Fatal(err)
			}
		}
	}

	closed := w.city.Feed.Trips[0].RouteID
	feed := w.city.Feed.Clone()
	feed.Trips = feed.Trips[:0:0]
	var stops []geo.Point
	for _, tr := range w.city.Feed.Trips {
		if tr.RouteID != closed {
			feed.Trips = append(feed.Trips, tr)
			continue
		}
		for _, st := range tr.StopTimes {
			if stop, ok := w.city.Feed.Stop(st.StopID); ok {
				stops = append(stops, stop.Point)
			}
		}
	}
	rebuilt := hoptree.ZonesWithinWalkshed(w.zones, w.isos, stops)
	b, err := hoptree.NewBuilder(feed, gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday}, w.zones, w.isos)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := hoptree.RebuildZones(b, w.forest, rebuilt, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale := make([]bool, len(w.zones))
	for _, z := range rebuilt {
		stale[z] = true
	}

	seeded, err := NewExtractor(forest, w.zones, w.isos, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeded.SeedFrom(src, rebuilt)
	want := scratchRows(t, forest, w, dests)
	kept, changed := 0, 0
	for origin := range w.zones {
		for di, d := range dests {
			col := seeded.pairs[d]
			if col == nil || col.state[origin].Load() != rowReady {
				continue
			}
			kept++
			if stale[origin] || stale[d.zone] {
				t.Fatalf("row (origin %d, dest zone %d) touches a rebuilt zone and was carried", origin, d.zone)
			}
			if !sameBits(col.row(origin), want[origin*len(dests)+di]) {
				t.Fatalf("carried row (origin %d, dest %+v) differs from the mutated forest's", origin, d)
			}
			if !sameBits(col.row(origin), src.pairs[d].row(origin)) {
				t.Fatalf("carried row (origin %d, dest %+v) is not the source's", origin, d)
			}
		}
	}
	// The mutation must matter, or equality above shows nothing.
	old := scratchRows(t, w.forest, w, dests)
	for i := range want {
		if !sameBits(want[i], old[i]) {
			changed++
		}
	}
	total := len(w.zones) * len(dests)
	if len(rebuilt) == 0 || kept == 0 || kept == total || changed == 0 {
		t.Fatalf("vacuous: %d zones rebuilt, %d of %d rows carried, %d rows changed by the mutation", len(rebuilt), kept, total, changed)
	}
	// What was not carried is recomputed on demand, to the same values.
	for origin := range w.zones {
		for di, d := range dests {
			if err := seeded.PairVectorInto(buf, origin, d.pt, d.zone, s); err != nil {
				t.Fatal(err)
			}
			if !sameBits(buf, want[origin*len(dests)+di]) {
				t.Fatalf("seeded extractor (origin %d, dest %+v) differs from the mutated forest's", origin, d)
			}
		}
	}
}

// TestPairTableFull: past maxPairColumns destinations the vectors are still
// right, they are just not kept.
func TestPairTableFull(t *testing.T) {
	w := fixture(t)
	e := newExtractor(t)
	for i := 0; i < maxPairColumns; i++ {
		e.pairs[pairDest{pt: geo.Point{Lat: float64(i)}, zone: 0}] = nil
	}
	ref := newExtractor(t)
	s := new(Scratch)
	got, want := make([]float64, Dim), make([]float64, Dim)
	for pass := 0; pass < 2; pass++ {
		if err := e.PairVectorInto(got, 1, w.zones[2], 2, s); err != nil {
			t.Fatal(err)
		}
		ref.computePair(want, 1, w.zones[2], 2, s)
		if !sameBits(got, want) {
			t.Fatalf("pass %d: full table served %v, computed %v", pass, got, want)
		}
	}
	if len(e.pairs) != maxPairColumns {
		t.Errorf("table grew to %d columns past its bound %d", len(e.pairs), maxPairColumns)
	}
}
