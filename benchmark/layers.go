package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/olog"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
)

// The traced run gives the per-layer numbers. It never instruments the
// program: it replays the workload serially through an in-process copy of
// the serving stack with a span around every call the benchmark makes,
// reads stage durations from the public Result.Timing, and probes each
// layer's public functions directly (probes.go). Tracing is off in every
// end-to-end run.

// stack is the serving stack aqserver assembles, built in-process from the
// same public pieces: a one-tenant registry over the label bank, the
// registry runner, and a serve.Manager with the server's defaults.
type stack struct {
	bank *bank.Bank
	tn   *registry.Tenant
	mgr  *serve.Manager
	// run is the manager's run function, for probes that must bypass the
	// result cache.
	run serve.RunFunc
}

func newStack(scale float64, tr *tracer) (*stack, error) {
	workers := runtime.GOMAXPROCS(0)
	logger := olog.New(os.Stderr, olog.LevelWarn)
	bk := bank.New(bank.Config{})
	acct := account.New()
	reg, err := registry.Open([]registry.TenantSpec{{Name: city}}, registry.Options{
		Scale: scale, Interval: amPeak, Parallelism: workers, WarmCaches: true,
		Bank: bk, Logger: logger, Accountant: acct,
	})
	if err != nil {
		return nil, err
	}
	tn, _ := reg.Get(city)
	run := tr.wrapRun(serve.RegistryRunner(reg, serve.RunnerConfig{Parallelism: workers, Bank: bk}))
	mgr := serve.NewManager(run, serve.Config{Tenants: 1, EpochOf: reg.EpochOf, Logger: logger, Accountant: acct})
	return &stack{bank: bk, tn: tn, mgr: mgr, run: run}, nil
}

// replay runs the workload's own request stream — warm-up, then rounds
// alternating between the two connections' roles until cfg.traceQueries
// queries are measured — serially through the stack, and emits what share
// of this workload's query each layer is.
func replay(cfg config, name string, tr *tracer, st *stack, e *emitter) (violations []string, err error) {
	w, err := newWorkload(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	lt := &localTarget{mgr: st.mgr, tn: st.tn, tr: tr}
	tr.switchTo(true, false)
	if err := w.warm([]target{lt}); err != nil {
		return nil, fmt.Errorf("replay warm-up: %w", err)
	}

	tr.switchTo(true, true)
	bank0, serve0 := st.bank.Stats(), st.mgr.Stats()
	queries := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; queries < cfg.traceQueries && time.Now().Before(deadline); i++ {
		ms, err := w.round(i%conns, lt)
		var v *violation
		if errors.As(err, &v) {
			violations = append(violations, v.msg)
		} else if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		queries += len(ms)
	}
	tr.switchTo(true, false)
	bank1, serve1 := st.bank.Stats(), st.mgr.Stats()

	// Engine runs of the measured pass. Means, not medians: the stage
	// shares and the glue must add up to the run.
	self := selfTimes(tr.spans)
	var runNS, glueNS, allocs, bytes, spqs float64
	var stage [4]float64
	for _, r := range tr.runs {
		s := tr.spans[r.span]
		runNS += float64(s.End - s.Start)
		glueNS += float64(self[r.span])
		allocs += float64(r.allocs)
		bytes += float64(r.bytes)
		spqs += float64(r.timing.SPQs)
		for i, d := range []time.Duration{r.timing.Matrix, r.timing.Labeling, r.timing.Features, r.timing.Training} {
			stage[i] += float64(d)
		}
	}
	n := float64(len(tr.runs))
	// A workload whose measured pass never reaches the engine (hot_repeat)
	// reports 0 for the engine's rows: that is its prediction.
	e.set("core.run_ns", ratio(runNS, n), len(tr.runs))
	e.set("core.run_allocs", ratio(allocs, n), len(tr.runs))
	e.set("core.run_bytes", ratio(bytes, n), len(tr.runs))
	e.set("core.glue_ns", ratio(glueNS, n), len(tr.runs))
	for i, s := range []string{"matrix", "labeling", "features", "training"} {
		e.set("core.stage_share."+s, ratio(stage[i], runNS), len(tr.runs))
	}
	e.set("access.spqs_per_query", spqs/float64(queries), queries)
	lookups := float64(bank1.Hits - bank0.Hits + bank1.Misses - bank0.Misses)
	e.set("bank.hit_ratio", ratio(float64(bank1.Hits-bank0.Hits), lookups), int(lookups))
	e.set("serve.cache_hit_ratio", float64(serve1.CacheHits-serve0.CacheHits)/float64(queries), queries)
	return violations, nil
}

// probeHTTP prices the HTTP layer's hit path against a real subprocess:
// one miss, then sequential hits of the canary with per-zone rows.
func probeHTTP(ctx context.Context, cfg config, name string) (hitMS []float64, bodyBytes int, err error) {
	srv, _, err := startServer(ctx, cfg.bin, cfg.outDir, name+"-trace", cfg.scale)
	if err != nil {
		return nil, 0, err
	}
	defer srv.stop()
	t := newHTTPTarget(srv.base)
	defer t.close()
	req := headline(canarySeed)
	req.IncludeZones = true
	miss, err := t.query(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%w\n%s", err, srv.stderrTail())
	}
	const hits = 500
	for i := 0; i < hits; i++ {
		rep, ms, err := timedQuery(t, req)
		if err != nil {
			return nil, 0, fmt.Errorf("%w\n%s", err, srv.stderrTail())
		}
		if !rep.hit || string(rep.payload) != string(miss.payload) {
			return nil, 0, fmt.Errorf("HTTP hit probe: hit=%v, body equal to the miss=%v", rep.hit, string(rep.payload) == string(miss.payload))
		}
		hitMS = append(hitMS, ms)
	}
	return hitMS, miss.bytes, nil
}

// runTraced produces one workload's per-layer record.
func runTraced(ctx context.Context, cfg config, name string) (*record, error) {
	rec := newRecord(cfg, name, true)
	e := newEmitter(cfg.spec.PerLayer)
	tr := newTracer()

	hitMS, bodyBytes, err := probeHTTP(ctx, cfg, name)
	if err != nil {
		return nil, err
	}

	st, err := newStack(cfg.scale, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = st.mgr.Shutdown(sctx) // nothing is in flight: the replay is serial
	}()
	v, err := replay(cfg, name, tr, st, e)
	if err != nil {
		return nil, err
	}
	rec.Violations = append(rec.Violations, v...)
	if v, err = probeLayers(cfg, tr, st, e); err != nil {
		return nil, err
	}
	rec.Violations = append(rec.Violations, v...)

	sorted := sortedCopy(hitMS)
	e.set("http.hit_overhead_ms", percentile(sorted, 0.50)-e.metrics["serve.do_hit_ns"].Value/float64(time.Millisecond), len(sorted))
	e.set("http.hit_ms_p99", percentile(sorted, 0.99), len(sorted))
	e.set("http.response_bytes", float64(bodyBytes), 1)

	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	rec.Attempted = len(tr.spans)
	rec.finish(e)
	return rec, nil
}
