package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"accessquery/internal/apiclient"
	"accessquery/internal/core"
	"accessquery/internal/gtfs"
	"accessquery/internal/synth"
)

const (
	// defaultScale is aqserver's -scale default: Coventry at 253 zones.
	defaultScale = 0.25
	// setupBoots is how many times a run boots the server; setup_s uses
	// the median boot so one slow exec does not move it.
	setupBoots = 3
	// canarySeed fixes the one query whose answer is compared with ground
	// truth. It does not follow -seed: answer_mape_pct and answer_digest
	// describe the program, not the traffic, and must repeat exactly.
	canarySeed = 20230401
)

// config is what a run needs beyond its workload. Only the smoke test
// changes scale and traceQueries.
type config struct {
	root, outDir string
	// bin is the aqserver binary built from this checkout (buildServer).
	bin          string
	spec         *benchSpec
	seed         int64
	seconds      float64
	scale        float64
	traceQueries int
}

// amPeak is the interval aqserver serves (weekday AM peak).
var amPeak = gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"}

// newCity generates the city aqserver's coventry preset serves at scale.
func newCity(scale float64) (*synth.City, error) {
	return synth.Generate(synth.Scaled(synth.Coventry(), scale))
}

// canaryQuery is the canary as the engine sees it, through the one
// canonical request→query mapping the server uses.
func canaryQuery(c *synth.City) core.Query {
	req, _ := headline(canarySeed).Normalize() // a constant, valid request
	return req.Query(core.POIsOf(c, synth.POICategory(req.Category)))
}

// canaryTruth prices every zone of the canary in-process: the reference
// the served answer's inferred zones are scored against.
func canaryTruth(scale float64) (*core.Result, error) {
	c, err := newCity(scale)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(c, core.EngineOptions{Interval: amPeak, Parallelism: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	q := canaryQuery(c)
	q.Workers = runtime.GOMAXPROCS(0)
	return eng.GroundTruth(q)
}

// scoreCanary asks the server for the canary with per-zone rows and
// returns the mean absolute percentage error of MAC over the zones the
// model inferred, plus a digest of every zone's MAC and ACSD.
func scoreCanary(t *httpTarget, truth *core.Result) (mapePct float64, digest string, err error) {
	req := headline(canarySeed)
	req.IncludeZones = true
	ans, err := (&apiclient.Client{Base: t.base, HTTP: t.client}).Query(context.Background(), req)
	if err != nil {
		return 0, "", err
	}
	if len(ans.Degraded) > 0 {
		return 0, "", fmt.Errorf("canary answer is degraded: %s", ans.Degraded)
	}
	h := sha256.New()
	var sum float64
	var n int
	for _, z := range ans.Zones {
		fmt.Fprintf(h, "%d:%s:%s;", z.Zone, strconv.FormatFloat(z.MAC, 'g', -1, 64), strconv.FormatFloat(z.ACSD, 'g', -1, 64))
		if z.Labeled || z.Zone >= len(truth.MAC) || !truth.Valid[z.Zone] || truth.MAC[z.Zone] <= 0 {
			continue
		}
		sum += math.Abs(z.MAC-truth.MAC[z.Zone]) / truth.MAC[z.Zone]
		n++
	}
	if n == 0 {
		return 0, "", fmt.Errorf("canary answer has no inferred zone with ground truth")
	}
	return 100 * sum / float64(n), hex.EncodeToString(h.Sum(nil)), nil
}

// loopStats is what one connection's closed loop observed.
type loopStats struct {
	queryMS    []float64
	roundMS    []float64
	queries    int
	violations []string
}

// runLoop iterates the workload's round on one connection until the
// deadline. A failed request is counted by the target and the loop goes
// on; a wrong answer is kept as a violation.
func runLoop(w workload, conn int, t target, deadline time.Time) loopStats {
	var st loopStats
	for time.Now().Before(deadline) {
		start := time.Now()
		ms, err := w.round(conn, t)
		var v *violation
		switch {
		case errors.As(err, &v):
			st.violations = append(st.violations, v.msg)
		case err != nil:
			// Counted as failed by the target. Back off so a dead server
			// does not turn the window into a busy loop.
			time.Sleep(10 * time.Millisecond)
		default:
			st.roundMS = append(st.roundMS, float64(time.Since(start))/float64(time.Millisecond))
			st.queryMS = append(st.queryMS, ms...)
			st.queries += len(ms)
		}
	}
	return st
}

// selfCPU is this process's user+system CPU time, the load generator's
// own cost.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runEndToEnd measures one workload against a fresh aqserver subprocess
// with tracing off and returns the record of the run.
func runEndToEnd(ctx context.Context, cfg config, name string) (*record, error) {
	w, err := newWorkload(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	truth, err := canaryTruth(cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("canary ground truth: %w", err)
	}

	// Set-up: boot (median of setupBoots) plus the workload's warm-up pass
	// on the last boot, which then serves the measured window.
	var srv *server
	var boots []float64
	for i := 0; i < setupBoots; i++ {
		if srv != nil {
			srv.stop()
		}
		var boot time.Duration
		srv, boot, err = startServer(ctx, cfg.bin, cfg.outDir, name, cfg.scale)
		if err != nil {
			return nil, err
		}
		boots = append(boots, boot.Seconds())
	}
	defer srv.stop()
	fail := func(err error) (*record, error) {
		return nil, fmt.Errorf("%w\n%s", err, srv.stderrTail())
	}
	hts := make([]*httpTarget, conns)
	ts := make([]target, conns)
	for c := range hts {
		hts[c] = newHTTPTarget(srv.base)
		defer hts[c].close()
		ts[c] = hts[c]
	}
	warmStart := time.Now()
	if err := w.warm(ts); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	setup := median(boots) + time.Since(warmStart).Seconds()

	// Measured window. Requests in flight at the deadline complete, so the
	// window's length is taken when the last loop returns.
	for _, h := range hts {
		h.attempted, h.failed = 0, 0
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return fail(err)
	}
	self0 := selfCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	stats := make([]loopStats, conns)
	var wg sync.WaitGroup
	for c := range ts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = runLoop(w, c, ts[c], deadline)
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	self1 := selfCPU()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return fail(err)
	}

	rec := newRecord(cfg, name, false)
	rec.ServerFlags = srv.args
	rec.WindowS = window.Seconds()
	rec.ClientCPUShare = (self1 - self0).Seconds() / (window.Seconds() * float64(runtime.NumCPU()))
	var queryMS []float64
	var queries int
	for c, st := range stats {
		queryMS = append(queryMS, st.queryMS...)
		queries += st.queries
		rec.Violations = append(rec.Violations, st.violations...)
		rec.Attempted += hts[c].attempted
		rec.Failed += hts[c].failed
	}
	if queries == 0 {
		return fail(fmt.Errorf("no query completed in the %.0f s window", cfg.seconds))
	}

	// The canary is asked after the window so that it never shares the
	// measured traffic's cache or CPU; on scenario_churn it also proves the
	// last revert restored the baseline answer.
	mape, digest, err := scoreCanary(hts[0], truth)
	if err != nil {
		return fail(fmt.Errorf("canary: %w", err))
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return fail(err)
	}

	e := newEmitter(cfg.spec.EndToEnd)
	sorted := sortedCopy(queryMS)
	e.set("query_ms_p50", percentile(sorted, 0.50), len(sorted))
	e.set("query_ms_p90", percentile(sorted, 0.90), len(sorted))
	// Connection 0 is the analyst: its loop iteration is the unit of work
	// a user waits for — one query, or the whole what-if round.
	e.set("round_ms_p50", median(stats[0].roundMS), len(stats[0].roundMS))
	e.set("throughput_qps", float64(queries)/window.Seconds(), queries)
	e.set("server_cpu_ms_per_query", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(queries), queries)
	e.set("server_rss_peak_mb", rss, 1)
	e.set("setup_s", setup, setupBoots)
	e.set("answer_mape_pct", mape, 1)
	rec.finish(e)
	rec.Digest = digest
	return rec, nil
}
