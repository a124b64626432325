package obs

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aq_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
	if again := r.Counter("aq_test_total"); again != c {
		t.Error("get-or-create returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("aq_test_depth")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(0.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("Value() = %g, want 3.5", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("aq_test_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("aq_test_total")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9leading", "sp ace", `x{y=unquoted}`, `x{="v"}`, `x{y="v"`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(`aq_test_total{b="2",a="1"}`)
	b := r.Counter(`aq_test_total{a="1",b="2"}`)
	if a != b {
		t.Fatal("label order produced distinct metrics")
	}
}

func TestHistogramCountAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("aq_test_seconds", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 5, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	if got := h.Sum(); math.Abs(got-117.5) > 1e-9 {
		t.Fatalf("Sum() = %g, want 117.5", got)
	}
}

func TestHistogramClampsNegative(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("aq_test_seconds", []float64{1})
	h.Observe(-5)
	if got := h.Sum(); got != 0 {
		t.Fatalf("Sum() = %g after negative observation, want 0", got)
	}
	if got := h.Count(); got != 1 {
		t.Fatalf("Count() = %d, want 1", got)
	}
}

// TestWritePrometheusGolden pins the exposition format byte for byte: a
// deterministic registry must render exactly the committed golden file, so
// format regressions (ordering, label rendering, bucket cumulation) fail
// loudly.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("aq_engine_stage_seconds", "Per-stage engine latency.")
	r.SetHelp("aq_serve_cache_hits_total", "Result-cache hits.")

	c := r.Counter("aq_serve_cache_hits_total")
	c.Add(7)
	r.Counter(`aq_http_requests_total{route="/v1/query",code="200"}`).Add(3)
	r.Counter(`aq_http_requests_total{code="429",route="/v1/query"}`).Inc()

	g := r.Gauge("aq_serve_queue_depth")
	g.Set(2)
	r.GaugeFunc("aq_serve_workers", func() float64 { return 4 })

	h := r.HistogramBuckets(`aq_engine_stage_seconds{stage="matrix"}`, []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(42)
	h2 := r.HistogramBuckets(`aq_engine_stage_seconds{stage="training"}`, []float64{0.01, 0.1, 1})
	h2.Observe(0.25)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "exposition.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryConcurrency hammers every metric kind from parallel
// goroutines while a scraper renders continuously; run under -race this
// verifies the registry is race-clean end to end.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{
				`aq_conc_total{w="a"}`, `aq_conc_total{w="b"}`, "aq_conc_plain_total",
			}
			for i := 0; i < iters; i++ {
				r.Counter(names[i%len(names)]).Inc()
				r.Gauge("aq_conc_depth").Add(1)
				r.Gauge("aq_conc_depth").Add(-1)
				r.Histogram("aq_conc_seconds").Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					r.GaugeFunc("aq_conc_fn", func() float64 { return float64(w) })
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	var total int64
	for _, n := range []string{`aq_conc_total{w="a"}`, `aq_conc_total{w="b"}`, "aq_conc_plain_total"} {
		total += r.Counter(n).Value()
	}
	if want := int64(workers * iters); total != want {
		t.Errorf("counter total %d, want %d", total, want)
	}
	if got := r.Histogram("aq_conc_seconds").Count(); got != workers*iters {
		t.Errorf("histogram count %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("aq_conc_depth").Value(); got != 0 {
		t.Errorf("gauge settled at %g, want 0", got)
	}
}

func TestTraceAndSpans(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aq_span_seconds")
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	_, sp := Start(ctx, "matrix", h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	stages := tr.Summary().Stages()
	if len(stages) != 1 || stages[0].Name != "matrix" || stages[0].Seconds <= 0 {
		t.Fatalf("stages = %+v", stages)
	}
	if h.Count() != 1 {
		t.Fatalf("histogram count %d, want 1", h.Count())
	}
	// Traceless contexts and nil histograms are no-ops, not panics.
	_, sp = Start(context.Background(), "x", nil)
	if sp.End() < 0 {
		t.Fatal("negative duration")
	}
	var nilTrace *Trace
	if nilTrace.Summary().Stages() != nil {
		t.Fatal("nil trace returned stages")
	}
}

func TestDebugServer(t *testing.T) {
	Counter("aq_debug_test_total").Inc()
	srv, addr, err := StartDebugServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q", ct)
	}
	if !strings.Contains(buf.String(), "aq_debug_test_total 1") {
		t.Errorf("metrics body missing test counter:\n%s", buf.String())
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

// A debug page owned by a higher layer (the capture store) must be mounted
// on the debug server when its handler is passed in, and only then — the
// inversion that lets obs serve it without importing that layer.
func TestRegisterDebug(t *testing.T) {
	called := false
	captures := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { called = true })
	srv, addr, err := StartDebugServer("127.0.0.1:0", captures, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	resp, err := http.Get("http://" + addr + "/debug/captures")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !called {
		t.Error("captures handler was not invoked")
	}

	bare, bareAddr, err := StartDebugServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Shutdown(context.Background())
	resp, err = http.Get("http://" + bareAddr + "/debug/captures")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/captures without a handler: status %d, want 404", resp.StatusCode)
	}
}
