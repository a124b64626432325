package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call — the program itself is not instrumented. Times are nanoseconds
// since the trace began.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	// Parent is the index of the span that caused this one, -1 for the
	// first span of a request; Query is the index of that first span, so
	// the spans of one request share it.
	Parent int `json:"parent"`
	Query  int `json:"query"`
}

// engineRun is what the traced run learns about one engine run from the
// outside: its span, the allocation it caused, and the public Result.
type engineRun struct {
	span          int
	allocs, bytes uint64
	timing        core.Timing
}

// tracer keeps the traced run's spans in memory until the run ends. The
// traced run is serial, so at most one request is open at a time; the
// mutex only orders the caller with the serving layer's worker goroutine.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	on      bool
	spans   []span
	open    int // the request span that engine runs hang under; -1 when none
	runs    []engineRun
	measure bool // engine runs count toward the layer table only while set
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true, open: -1} }

const root = -1

// start opens a span under parent (root for a request's first span) and
// returns its index, or -1 while tracing is switched off.
func (t *tracer) start(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := len(t.spans)
	query := id
	if parent >= 0 {
		query = t.spans[parent].Query
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Query: query})
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// enter marks id as the request that calls made on the serving layer's
// worker goroutine belong to; leave clears it.
func (t *tracer) enter(id int) {
	t.mu.Lock()
	t.open = id
	t.mu.Unlock()
}

func (t *tracer) leave() { t.enter(-1) }

// switchTo turns recording on or off (off prices the instrument: see
// bench.trace_overhead_pct) and says whether engine runs are part of the
// measured pass.
func (t *tracer) switchTo(on, measure bool) {
	t.mu.Lock()
	t.on, t.measure = on, measure
	t.mu.Unlock()
}

// wrapRun puts a core.run span, allocation deltas and the stage spans of
// the public Result.Timing around the serving layer's run function.
func (t *tracer) wrapRun(run serve.RunFunc) serve.RunFunc {
	return func(ctx context.Context, req serve.Request) (*core.Result, error) {
		t.mu.Lock()
		on, parent := t.on, t.open
		t.mu.Unlock()
		if !on {
			return run(ctx, req)
		}
		// The allocation readings stop the world; they get spans of their
		// own so that they count as neither the engine's time nor the
		// serving layer's.
		var before, after runtime.MemStats
		ms := t.start("bench.memstats", parent)
		runtime.ReadMemStats(&before)
		t.end(ms)
		sp := t.start("core.run", parent)
		res, err := run(ctx, req)
		t.end(sp)
		ms = t.start("bench.memstats", parent)
		runtime.ReadMemStats(&after)
		t.end(ms)
		if err != nil {
			return res, err
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		// Stage durations are the engine's own (public) Timing; the stages
		// run back to back, so they are laid out from the run's start.
		at := t.spans[sp].Start
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"core.matrix", res.Timing.Matrix}, {"core.labeling", res.Timing.Labeling},
			{"core.features", res.Timing.Features}, {"core.training", res.Timing.Training},
		} {
			t.spans = append(t.spans, span{Name: st.name, Start: at, End: at + int64(st.d), Parent: sp, Query: t.spans[sp].Query})
			at += int64(st.d)
		}
		if t.measure {
			t.runs = append(t.runs, engineRun{
				span: sp, allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
				timing: res.Timing,
			})
		}
		return res, nil
	}
}

// selfTimes returns, per span, its duration minus the part its child
// spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
