package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"accessquery/internal/serve"
)

// conns is the number of closed-loop client connections: one per CPU of
// the 2-CPU machine the benchmark is pinned to, and one per server worker.
const conns = 2

// violation is a wrong answer (as opposed to a failed request): it makes
// the run incorrect.
type violation struct{ msg string }

func (v *violation) Error() string { return v.msg }

func violationf(format string, args ...interface{}) error {
	return &violation{fmt.Sprintf(format, args...)}
}

// workload is one traffic mix. warm runs once on a fresh server (its time
// is part of setup_s) and may spread work over the given targets; round is
// one iteration of connection conn's closed loop and returns the latency
// of each /v1/query it made.
type workload interface {
	warm(ts []target) error
	round(conn int, t target) (queryMS []float64, err error)
}

// workloads is the table the command line selects from, in BENCHMARK.json
// order. Why each exists is recorded there and in the README.
var workloads = []struct {
	name string
	new  func(seed int64) workload
}{
	{"cold_unique", newColdUnique},
	{"hot_repeat", newHotRepeat},
	{"bank_sweep", newBankSweep},
	{"scenario_churn", newScenarioChurn},
}

func newWorkload(name string, seed int64) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.new(seed), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// timedQuery sends one query and returns its latency in milliseconds.
func timedQuery(t target, req serve.Request) (reply, float64, error) {
	start := time.Now()
	rep, err := t.query(req)
	return rep, float64(time.Since(start)) / float64(time.Millisecond), err
}

// spread runs fn(i, target) for i in [0, n) over the targets, one
// goroutine per target pulling the next index, and returns the first
// error.
func spread(ts []target, n int, fn func(i int, t target) error) error {
	var next atomic.Int64
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for c, t := range ts {
		wg.Add(1)
		go func(c int, t target) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || errs[c] != nil {
					return
				}
				errs[c] = fn(i, t)
			}
		}(c, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// headline is the paper's operating point and the repo's default query:
// schools, journey time, MLP, a 5% labeling budget, 30 start times an hour.
func headline(seed int64) serve.Request {
	return serve.Request{Category: "school", Cost: "JT", Model: "MLP", Budget: 0.05, Seed: seed}
}

// freshSeeds hands out query seeds no request of the run has used, so the
// result cache and the label bank both miss.
type freshSeeds struct{ next atomic.Int64 }

func newFreshSeeds(seed int64) *freshSeeds {
	f := &freshSeeds{}
	f.next.Store(seed * 1_000_000)
	return f
}

func (f *freshSeeds) take() int64 { return f.next.Add(1) }

// coldQuery sends a never-seen headline query and checks it was computed:
// a cache miss that priced trips.
func coldQuery(t target, seed int64) (reply, float64, error) {
	rep, ms, err := timedQuery(t, headline(seed))
	if err == nil && (rep.hit || rep.spqs <= 0) {
		err = violationf("cold query answered with hit=%v spqs=%d, want a miss that prices trips", rep.hit, rep.spqs)
	}
	return rep, ms, err
}

// coldUnique: every request is a never-seen headline query.
type coldUnique struct{ seeds *freshSeeds }

func newColdUnique(seed int64) workload { return &coldUnique{newFreshSeeds(seed)} }

func (w *coldUnique) warm(ts []target) error {
	return spread(ts, 2*conns, func(_ int, t target) error {
		_, _, err := coldQuery(t, w.seeds.take())
		return err
	})
}

func (w *coldUnique) round(_ int, t target) ([]float64, error) {
	_, ms, err := coldQuery(t, w.seeds.take())
	return []float64{ms}, err
}

// hotRepeat: a Zipf(1.1) draw over 32 fingerprints that are all resident
// in the 64-entry result cache after warm-up, answered with per-zone rows
// (the choropleth refresh).
type hotRepeat struct {
	reqs []serve.Request
	// miss holds each fingerprint's verified miss payload; every hit must
	// equal it byte for byte.
	miss [][]byte
	zipf [conns]*rand.Zipf
}

const hotFingerprints = 32

func newHotRepeat(seed int64) workload {
	w := &hotRepeat{miss: make([][]byte, hotFingerprints)}
	// Popularity rank follows the paper's POI mix: schools at the head,
	// hospital, vaccination and job centres in the tail. Within a
	// category, groups of four share a query seed and differ in cost and
	// model — the analyst toggling a map — so three of four warm-up
	// queries are answered from the label bank.
	variants := []struct{ cost, model string }{{"JT", "MLP"}, {"GAC", "MLP"}, {"JT", "OLS"}, {"GAC", "OLS"}}
	for _, c := range []struct {
		category string
		n        int
	}{{"school", 16}, {"hospital", 8}, {"vax_center", 4}, {"job_center", 4}} {
		for i := 0; i < c.n; i++ {
			v := variants[i%len(variants)]
			w.reqs = append(w.reqs, serve.Request{
				Category: c.category, Cost: v.cost, Model: v.model, Budget: 0.05,
				Seed: seed*1000 + int64(len(w.reqs)/len(variants)), IncludeZones: true,
			})
		}
	}
	for c := range w.zipf {
		w.zipf[c] = rand.NewZipf(rand.New(rand.NewSource(seed*conns+int64(c))), 1.1, 1, hotFingerprints-1)
	}
	return w
}

func (w *hotRepeat) warm(ts []target) error {
	// Seed leaders (the first variant of each group) go first so that the
	// variants behind them drain the bank instead of pricing again.
	order := make([]int, 0, hotFingerprints)
	for _, leaders := range []bool{true, false} {
		for k := range w.reqs {
			if (k%4 == 0) == leaders {
				order = append(order, k)
			}
		}
	}
	return spread(ts, len(order), func(i int, t target) error {
		k := order[i]
		rep, err := t.query(w.reqs[k])
		if err != nil {
			return err
		}
		if rep.hit {
			return violationf("hot_repeat warm-up of fingerprint %d was a cache hit", k)
		}
		w.miss[k] = rep.payload
		return nil
	})
}

func (w *hotRepeat) round(conn int, t target) ([]float64, error) {
	k := int(w.zipf[conn].Uint64())
	rep, ms, err := timedQuery(t, w.reqs[k])
	if err != nil {
		return nil, err
	}
	if !rep.hit {
		return nil, violationf("hot_repeat fingerprint %d missed the result cache", k)
	}
	if !bytes.Equal(rep.payload, w.miss[k]) {
		return nil, violationf("hot_repeat fingerprint %d: hit body differs from its miss body outside the cache block", k)
	}
	return []float64{ms}, nil
}

// bankSweep: the analyst's budget sweep. 80 fingerprints — 5 query seeds,
// 8 labeling budgets, both costs, the recommended model — are visited
// cyclically, so the 64-entry LRU never holds the next one, but every trip
// they price was deposited in the label bank during the warm-up cycle.
type bankSweep struct {
	reqs []serve.Request
	// next is shared by the connections: request starts follow the cycle
	// exactly, so between two visits of a fingerprint 79 others are
	// inserted and the LRU has evicted it.
	next atomic.Int64
}

// sweepSeeds is the number of query seeds in the sweep, and so the number
// of leaders at the head of the cycle.
const sweepSeeds = 5

func newBankSweep(seed int64) workload {
	budgets := []float64{0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.20}
	w := &bankSweep{}
	add := func(budget float64, cost string, s int64) {
		w.reqs = append(w.reqs, serve.Request{Category: "school", Cost: cost, Model: "MLP", Budget: budget, Seed: seed*1000 + s})
	}
	// Each seed's largest budget leads the cycle: a seed's labeled zones at
	// a smaller budget are a prefix of the same permutation, so these five
	// price everything the other 75 need.
	top := budgets[len(budgets)-1]
	for s := int64(0); s < sweepSeeds; s++ {
		add(top, "JT", s)
	}
	// The rest cycles through the budgets fastest, so that a window ending
	// mid-cycle has still seen every budget about equally often.
	for s := int64(0); s < sweepSeeds; s++ {
		for _, cost := range []string{"JT", "GAC"} {
			for _, budget := range budgets {
				if budget != top || cost != "JT" {
					add(budget, cost, s)
				}
			}
		}
	}
	return w
}

func (w *bankSweep) warm(ts []target) error {
	visit := func(i int, t target) error {
		rep, err := t.query(w.reqs[i])
		if err == nil && rep.hit {
			err = violationf("bank_sweep warm-up of fingerprint %d was a cache hit", i)
		}
		return err
	}
	// The leaders finish before anything else starts: they take twenty
	// times as long as a bank-warm query, and a result enters the LRU when
	// its query completes, so a leader overlapping the rest would enter late
	// and still be resident when the measured cycle comes round to it.
	if err := spread(ts, sweepSeeds, visit); err != nil {
		return err
	}
	return spread(ts, len(w.reqs)-sweepSeeds, func(i int, t target) error { return visit(sweepSeeds+i, t) })
}

func (w *bankSweep) round(_ int, t target) ([]float64, error) {
	k := int((w.next.Add(1) - 1) % int64(len(w.reqs)))
	rep, ms, err := timedQuery(t, w.reqs[k])
	if err != nil {
		return nil, err
	}
	if rep.hit || rep.spqs != 0 {
		return nil, violationf("bank_sweep fingerprint %d answered with hit=%v spqs=%d, want a miss priced from the bank", k, rep.hit, rep.spqs)
	}
	return []float64{ms}, nil
}

// scenarioChurn: connection 0 loops a what-if round (apply a route
// closure, query it cold, query it again under the other cost from the
// new epoch's bank, revert, query the baseline cold) while connection 1
// sends cold_unique traffic, so engine generations are in flight across
// every swap.
type scenarioChurn struct{ seeds *freshSeeds }

func newScenarioChurn(seed int64) workload { return &scenarioChurn{newFreshSeeds(seed)} }

func (w *scenarioChurn) warm(ts []target) error {
	if _, err := w.round(0, ts[0]); err != nil {
		return err
	}
	return spread(ts, conns, func(_ int, t target) error {
		_, _, err := coldQuery(t, w.seeds.take())
		return err
	})
}

func (w *scenarioChurn) round(conn int, t target) ([]float64, error) {
	if conn != 0 {
		_, ms, err := coldQuery(t, w.seeds.take())
		return []float64{ms}, err
	}
	applied, err := t.applyScenario()
	if err != nil {
		return nil, err
	}
	seed := w.seeds.take()
	q1, ms1, err := coldQuery(t, seed)
	if err != nil {
		return nil, err
	}
	again := headline(seed)
	again.Cost = "GAC"
	q2, ms2, err := timedQuery(t, again)
	if err != nil {
		return nil, err
	}
	reverted, err := t.revertScenario()
	if err != nil {
		return nil, err
	}
	q3, ms3, err := coldQuery(t, w.seeds.take())
	if err != nil {
		return nil, err
	}
	switch {
	case q1.epoch != applied || q2.epoch != applied:
		return nil, violationf("scenario queries answered from epochs %d and %d, want the applied epoch %d", q1.epoch, q2.epoch, applied)
	case q2.hit || q2.spqs != 0:
		return nil, violationf("scenario re-query answered with hit=%v spqs=%d, want a miss priced from the new epoch's bank", q2.hit, q2.spqs)
	case q3.epoch != reverted || reverted <= applied:
		return nil, violationf("post-revert query answered from epoch %d, want the reverted epoch %d (> %d)", q3.epoch, reverted, applied)
	}
	return []float64{ms1, ms2, ms3}, nil
}
