package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

// parallelTestCity is a seeded synthetic city shared by the equality tests.
var parallelTestCity = struct {
	once sync.Once
	city *synth.City
	err  error
}{}

func equalityCity(t testing.TB) *synth.City {
	parallelTestCity.once.Do(func() {
		parallelTestCity.city, parallelTestCity.err = synth.Generate(synth.Scaled(synth.Coventry(), 0.08))
	})
	if parallelTestCity.err != nil {
		t.Fatal(parallelTestCity.err)
	}
	return parallelTestCity.city
}

func equalityEngine(t testing.TB, parallelism int) *Engine {
	e, err := NewEngine(equalityCity(t), EngineOptions{
		Interval:    gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "AM peak"},
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPrepParallelMatchesSerial pins the tentpole's determinism contract for
// the offline phase: isochrone set and hop-tree forest must be deep-equal
// between a serial and a 4-worker build.
func TestPrepParallelMatchesSerial(t *testing.T) {
	serial := equalityEngine(t, 1)
	parallel := equalityEngine(t, 4)
	if !reflect.DeepEqual(serial.isos, parallel.isos) {
		t.Error("isochrone sets differ between Parallelism 1 and 4")
	}
	if !reflect.DeepEqual(serial.forest, parallel.forest) {
		t.Error("hop-tree forests differ between Parallelism 1 and 4")
	}
}

// sameResult compares everything except Timing (wall-clock necessarily
// differs across runs).
func sameResult(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(a.MAC, b.MAC) {
		t.Errorf("%s: MAC differs", label)
	}
	if !reflect.DeepEqual(a.ACSD, b.ACSD) {
		t.Errorf("%s: ACSD differs", label)
	}
	if !reflect.DeepEqual(a.Valid, b.Valid) {
		t.Errorf("%s: Valid differs", label)
	}
	if !reflect.DeepEqual(a.Labeled, b.Labeled) {
		t.Errorf("%s: Labeled differs", label)
	}
	if !reflect.DeepEqual(a.Classes, b.Classes) {
		t.Errorf("%s: Classes differ", label)
	}
	if a.Fairness != b.Fairness {
		t.Errorf("%s: fairness %v != %v", label, a.Fairness, b.Fairness)
	}
	if a.WalkOnlyShare != b.WalkOnlyShare {
		t.Errorf("%s: walk-only share %v != %v", label, a.WalkOnlyShare, b.WalkOnlyShare)
	}
	if a.Timing.SPQs != b.Timing.SPQs {
		t.Errorf("%s: SPQs %d != %d", label, a.Timing.SPQs, b.Timing.SPQs)
	}
}

// TestRunParallelMatchesSerial covers the full online path: a query on a
// serially-prepped engine with a serial feature stage must produce the same
// result as a parallel-prepped engine with a 4-worker feature stage and
// 4-worker labeling. Run under -race in CI this doubles as the data-race
// regression test for the shared extractor caches.
func TestRunParallelMatchesSerial(t *testing.T) {
	serial := equalityEngine(t, 1)
	parallel := equalityEngine(t, 4)
	for _, model := range []ModelKind{ModelOLS, ModelMLP} {
		q := Query{
			POIs:           POIsOf(serial.City, synth.POISchool),
			Budget:         0.2,
			Model:          model,
			SamplesPerHour: 8,
			Seed:           7,
		}
		qs := q
		qs.Workers = 1
		qs.Parallelism = 1
		qp := q
		qp.Workers = 4
		qp.Parallelism = 4
		rs, err := serial.Run(qs)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := parallel.Run(qp)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, rs, rp, string(model))
	}
}

// TestOriginFeatureMatrixParallelMatchesSerial pins the feature stage alone:
// the per-zone origin vectors must be identical whether computed serially or
// on a 4-worker pool (including the α-weights coming from the same matrix).
func TestOriginFeatureMatrixParallelMatchesSerial(t *testing.T) {
	e := equalityEngine(t, 2)
	q := Query{
		POIs:           POIsOf(e.City, synth.POIHospital),
		Budget:         0.2,
		SamplesPerHour: 8,
		Seed:           3,
	}
	m, _, poiZones, err := e.buildMatrix(q.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	nz := len(e.zonePts)
	want := make([][]float64, nz)
	for zone := 0; zone < nz; zone++ {
		v, err := e.extractor.OriginVector(zone, m.Row(zone), q.POIs, poiZones)
		if err != nil {
			t.Fatal(err)
		}
		want[zone] = v
	}
	// Fresh engine so the parallel pass starts from cold caches — the
	// worst case for determinism under concurrency.
	e2 := equalityEngine(t, 4)
	m2, _, poiZones2, err := e2.buildMatrix(q.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float64, nz)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for zone := range jobs {
				v, err := e2.extractor.OriginVector(zone, m2.Row(zone), q.POIs, poiZones2)
				if err != nil {
					t.Error(err)
					return
				}
				got[zone] = v
			}
		}()
	}
	for zone := 0; zone < nz; zone++ {
		jobs <- zone
	}
	close(jobs)
	wg.Wait()
	if !reflect.DeepEqual(want, got) {
		t.Error("origin-feature matrix differs between serial and 4-worker computation")
	}
}

// TestConcurrentQueriesWithParallelFeatures hammers one engine with
// concurrent queries that each fan their feature stage across workers — the
// serving-layer shape. Meaningful under -race: it proves the RWMutex-guarded
// extractor caches survive nested parallelism (queries × feature workers).
func TestConcurrentQueriesWithParallelFeatures(t *testing.T) {
	e := equalityEngine(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := e.Run(Query{
				POIs:           POIsOf(e.City, synth.POISchool),
				Budget:         0.15,
				Model:          ModelOLS,
				SamplesPerHour: 6,
				Parallelism:    4,
				Seed:           seed,
			})
			if err != nil {
				t.Error(err)
			}
		}(int64(i + 1))
	}
	wg.Wait()
}

func TestGroundTruthContextCancellation(t *testing.T) {
	e := equalityEngine(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.GroundTruthContext(ctx, Query{
		POIs:           POIsOf(e.City, synth.POISchool),
		Budget:         0.2,
		SamplesPerHour: 6,
		Seed:           1,
	})
	if err == nil {
		t.Fatal("cancelled ground-truth run should fail")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestParallelLabelingDepositsInZoneOrder: with a bank attached — warmed
// on every third zone, so start groups mix drained and priced trips —
// labeling at 1 and 4 workers yields deep-equal measures, counters and
// deposits, the deposits in zone order whichever worker priced them.
func TestParallelLabelingDepositsInZoneOrder(t *testing.T) {
	e := equalityEngine(t, 2)
	r := e.newRun(Query{
		POIs:           POIsOf(e.City, synth.POISchool),
		Budget:         0.2,
		SamplesPerHour: 8,
		Seed:           9,
	})
	ctx := context.Background()
	if err := r.matrix(ctx); err != nil {
		t.Fatal(err)
	}
	r.q.Bank = bank.New(bank.Config{}).Segment(e.City.Name, 1)
	var all, warm []int
	for z := range e.zonePts {
		all = append(all, z)
		if z%3 == 0 {
			warm = append(warm, z)
		}
	}
	r.zones = warm
	lo, err := r.labelZones(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r.q.Bank.Deposit(lo.deposits)
	var runs [2]labelOutcome
	r.zones = all
	for i, workers := range []int{1, 4} {
		r.q.Workers = workers
		if runs[i], err = r.labelZones(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].drained == 0 || runs[0].spqs == 0 || len(runs[0].deposits) == 0 {
		t.Fatalf("vacuous run: drained %d, spqs %d, deposits %d", runs[0].drained, runs[0].spqs, len(runs[0].deposits))
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("labeling at 4 workers differs from 1 worker (deposits in order: %v)",
			reflect.DeepEqual(runs[0].deposits, runs[1].deposits))
	}
}

// TestLabelZonesReportsSPQsOnError pins the satellite fix: when labeling
// fails partway, the SPQs already priced must still be reported instead of
// the old hardcoded zero.
func TestLabelZonesReportsSPQsOnError(t *testing.T) {
	e := equalityEngine(t, 1)
	r := e.newRun(Query{
		POIs:           POIsOf(e.City, synth.POISchool),
		Budget:         0.2,
		SamplesPerHour: 8,
		Seed:           5,
	})
	ctx := context.Background()
	if err := r.matrix(ctx); err != nil {
		t.Fatal(err)
	}
	// Every valid zone first, then one out-of-range zone to force the
	// error after real SPQ work has happened.
	for z := 0; z < len(e.zonePts)/2; z++ {
		r.zones = append(r.zones, z)
	}
	r.zones = append(r.zones, len(e.City.ZoneNode)) // out of range -> error

	for name, workers := range map[string]int{"serial": 1, "parallel": 4} {
		r.q.Workers = workers
		lo, err := r.labelZones(ctx)
		if err == nil {
			t.Fatalf("%s: expected error from out-of-range zone", name)
		}
		if lo.spqs <= 0 {
			t.Errorf("%s: errored labeling reported %d SPQs, want > 0", name, lo.spqs)
		}
	}
}
