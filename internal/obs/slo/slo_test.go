package slo

import (
	"io"
	"sync"
	"testing"
	"time"

	"accessquery/internal/obs"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("p99=2s,avail=99.9;coventry:p99=500ms;leeds:avail=99")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Default.LatencyTarget != 2*time.Second || spec.Default.LatencyQuantile != 0.99 {
		t.Errorf("default latency = %v@%g, want 2s@0.99", spec.Default.LatencyTarget, spec.Default.LatencyQuantile)
	}
	if spec.Default.AvailabilityPct != 99.9 {
		t.Errorf("default avail = %g, want 99.9", spec.Default.AvailabilityPct)
	}
	cov := spec.For("coventry")
	if cov.LatencyTarget != 500*time.Millisecond || cov.AvailabilityPct != 0 {
		t.Errorf("coventry override = %+v, want p99=500ms only", cov)
	}
	if got := spec.For("leeds").AvailabilityPct; got != 99 {
		t.Errorf("leeds avail = %g, want 99", got)
	}
	// Unlisted cities inherit the default.
	if got := spec.For("york"); got != spec.Default {
		t.Errorf("york = %+v, want default", got)
	}
	// A clause names its city as the registry keys tenants: trimmed and
	// lower-cased.
	if spec, err = ParseSpec("avail=99; Coventry :avail=50"); err != nil {
		t.Fatal(err)
	}
	if got := spec.For("coventry").AvailabilityPct; got != 50 {
		t.Errorf("coventry avail = %g, want 50 from the Coventry clause", got)
	}
}

func TestParseSpecOffAndErrors(t *testing.T) {
	for _, s := range []string{"", "off", "OFF", "  "} {
		spec, err := ParseSpec(s)
		if err != nil || spec != nil {
			t.Errorf("ParseSpec(%q) = %v, %v; want nil, nil", s, spec, err)
		}
	}
	for _, s := range []string{
		"p99",            // not key=value
		"p99=fast",       // bad duration
		"avail=101",      // out of range
		"avail=0",        // out of range
		"p0=1s",          // quantile 0
		"foo=1",          // unknown key
		"p99=1s;:p99=1s", // empty city
		"p99=1s;p95=1s",  // second default clause
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", s)
		}
	}
	// p999 means 99.9th percentile.
	spec, err := ParseSpec("p999=1s")
	if err != nil {
		t.Fatal(err)
	}
	if q := spec.Default.LatencyQuantile; q != 0.999 {
		t.Errorf("p999 quantile = %g, want 0.999", q)
	}
}

// newTestEngine returns an engine on a controllable clock.
func newTestEngine(t *testing.T, specStr string) (*Engine, *time.Time) {
	t.Helper()
	spec, err := ParseSpec(specStr)
	if err != nil {
		t.Fatal(err)
	}
	e := New(spec)
	now := time.Unix(1_700_000_000, 0)
	e.now = func() time.Time { return now }
	return e, &now
}

func TestBurnRateAvailability(t *testing.T) {
	// avail=99 -> 1% error budget. 10% errors -> burn 10.
	e, _ := newTestEngine(t, "avail=99")
	cov := e.Ensure("coventry")
	for i := 0; i < 90; i++ {
		cov.Record(time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		cov.Record(time.Millisecond, true)
	}
	if got := cov.burnRate(5 * time.Minute); got < 9.99 || got > 10.01 {
		t.Errorf("burn = %g, want 10", got)
	}
	if got := cov.FastBurn(); got < 9.99 || got > 10.01 {
		t.Errorf("fast burn = %g, want 10 (both windows hold the same data)", got)
	}
}

func TestBurnRateLatency(t *testing.T) {
	// p90=100ms -> 10% slow budget. 20% slow -> burn 2.
	e, _ := newTestEngine(t, "p90=100ms")
	x := e.Ensure("x")
	for i := 0; i < 80; i++ {
		x.Record(10*time.Millisecond, false)
	}
	for i := 0; i < 20; i++ {
		x.Record(500*time.Millisecond, false)
	}
	if got := x.burnRate(time.Hour); got < 1.99 || got > 2.01 {
		t.Errorf("latency burn = %g, want 2", got)
	}
}

func TestBurnRateWindowsAge(t *testing.T) {
	e, now := newTestEngine(t, "avail=99")
	x := e.Ensure("x")
	for i := 0; i < 100; i++ {
		x.Record(0, true) // 100% errors: burn 100
	}
	if got := x.burnRate(5 * time.Minute); got != 100 {
		t.Fatalf("burn = %g, want 100", got)
	}
	// Ten minutes later the 5m window is clean but 1h still burns, so the
	// fast signal (AND of both) resets — the whole point of multi-window.
	*now = now.Add(10 * time.Minute)
	if got := x.burnRate(5 * time.Minute); got != 0 {
		t.Errorf("5m burn after 10m = %g, want 0", got)
	}
	if got := x.burnRate(time.Hour); got != 100 {
		t.Errorf("1h burn after 10m = %g, want 100", got)
	}
	if got := x.FastBurn(); got != 0 {
		t.Errorf("fast burn after 10m = %g, want 0", got)
	}
	if r := x.report(); r.SlowBurn != 100 {
		t.Errorf("slow burn after 10m = %g, want 100", r.SlowBurn)
	}
	// Seven hours later everything has aged out.
	*now = now.Add(7 * time.Hour)
	if got := x.burnRate(6 * time.Hour); got != 0 {
		t.Errorf("6h burn after 7h = %g, want 0", got)
	}
}

func TestBucketReuseAfterFullRotation(t *testing.T) {
	// A record landing in a bucket slot last used >6h ago must reset the
	// slot, not accumulate into stale counts.
	e, now := newTestEngine(t, "avail=99")
	x := e.Ensure("x")
	x.Record(0, true)
	*now = now.Add(6 * time.Hour) // exactly one full ring rotation: same slot index
	x.Record(0, false)
	total := int64(0)
	for _, w := range e.Snapshot()[0].Windows {
		if w.Window == "5m" {
			total = w.Total
			if w.Errors != 0 {
				t.Errorf("5m errors = %d after rotation, want 0", w.Errors)
			}
		}
	}
	if total != 1 {
		t.Errorf("5m total = %d after rotation, want 1 (stale slot must reset)", total)
	}
}

func TestReportAndSnapshot(t *testing.T) {
	e, _ := newTestEngine(t, "p99=2s,avail=99.9")
	e.Ensure("quiet")
	e.Ensure("busy").Record(time.Millisecond, false)

	snap := e.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot() has %d tenants, want 2 (Ensure pre-registers)", len(snap))
	}
	if snap[0].City != "busy" || snap[1].City != "quiet" {
		t.Errorf("order = %s,%s; want busy,quiet", snap[0].City, snap[1].City)
	}
	r := snap[0]
	if len(r.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(r.Windows))
	}
	if r.Objectives.Latency != "p99<=2s" || r.Objectives.AvailabilityPct != 99.9 {
		t.Errorf("objectives view = %+v", r.Objectives)
	}
	if r.Windows[0].Total != 1 || r.Windows[0].Burn != 0 {
		t.Errorf("5m window = %+v, want total 1 burn 0", r.Windows[0])
	}
	if len(e.Snapshot()) != 2 {
		t.Error("Snapshot grew without a new city being ensured")
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	x := e.Ensure("x")
	if x != nil {
		t.Fatalf("nil Ensure = %v, want nil", x)
	}
	x.Record(time.Second, true)
	if got := x.FastBurn(); got != 0 {
		t.Errorf("nil FastBurn = %g", got)
	}
	if snap := e.Snapshot(); snap != nil {
		t.Errorf("nil Snapshot = %v", snap)
	}
	if e := New(nil); e != nil {
		t.Error("New(nil) should return a nil engine")
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	var e *Engine
	allocs := testing.AllocsPerRun(100, func() {
		e.Ensure("coventry").Record(time.Millisecond, false)
	})
	if allocs != 0 {
		t.Errorf("disabled engine allocates %.1f per record, want 0", allocs)
	}
}

// TestConcurrentRecords records one city's outcomes from several
// goroutines while they also read its fast burn, snapshot the engine and
// scrape its burn-rate gauges (run under -race).
func TestConcurrentRecords(t *testing.T) {
	e, _ := newTestEngine(t, "avail=99")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				x := e.Ensure("concurrent")
				x.Record(time.Millisecond, j%10 == 0)
				x.FastBurn()
				e.Snapshot()
				if j%25 == 0 {
					obs.WritePrometheus(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	w := e.Snapshot()[0].Windows[0]
	if w.Total != 800 || w.Errors != 80 {
		t.Errorf("5m window = %+v, want 800 total, 80 errors", w)
	}
}
