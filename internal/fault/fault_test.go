package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=42;spq:fail=0.05,delay=2ms;hoptree:fail=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 {
		t.Errorf("seed = %d", spec.Seed)
	}
	if s := spec.Sites[SiteSPQ]; s.Fail != 0.05 || s.Delay != 2*time.Millisecond {
		t.Errorf("spq spec = %+v", s)
	}
	if s := spec.Sites[SiteHopTree]; s.Fail != 0.5 || s.Delay != 0 {
		t.Errorf("hoptree spec = %+v", s)
	}
	if _, ok := spec.Sites[SiteSnapshot]; ok {
		t.Error("snapshot site materialized out of nowhere")
	}
}

func TestParseSpecEmpty(t *testing.T) {
	spec, err := ParseSpec("  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Sites) != 0 {
		t.Errorf("sites = %v", spec.Sites)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"spq",                 // no options
		"teleporter:fail=0.5", // unknown site
		"spq:fail=2",          // probability out of range
		"spq:fail=x",          // unparsable probability
		"spq:delay=-5ms",      // negative delay
		"spq:verbosity=11",    // unknown option
		"seed=notanumber;spq:fail=0.1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	spec, _ := ParseSpec("seed=7;spq:fail=0.2")
	pattern := func() []bool {
		inj := New(spec)
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.check(SiteSPQ) != nil
		}
		return out
	}
	a, b := pattern(), pattern()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors", i)
		}
		if a[i] {
			fired++
		}
	}
	// 200 draws at p=0.2: the exact count is fixed by the seed; just sanity
	// check it is in a plausible band.
	if fired < 20 || fired > 60 {
		t.Errorf("fired %d/200 at p=0.2", fired)
	}
}

// TestMonotoneCoupling is the property the chaos tests' monotone
// degradation assertion stands on: for the same seed, the set of draws
// that fail at a low rate is a subset of those failing at a high rate.
func TestMonotoneCoupling(t *testing.T) {
	fails := func(rate float64) []bool {
		spec, _ := ParseSpec(fmt.Sprintf("seed=13;spq:fail=%g", rate))
		inj := New(spec)
		out := make([]bool, 500)
		for i := range out {
			out[i] = inj.check(SiteSPQ) != nil
		}
		return out
	}
	low, mid, high := fails(0.01), fails(0.05), fails(0.2)
	for i := range low {
		if low[i] && !mid[i] {
			t.Fatalf("draw %d fails at 0.01 but not 0.05", i)
		}
		if mid[i] && !high[i] {
			t.Fatalf("draw %d fails at 0.05 but not 0.2", i)
		}
	}
}

func TestTransient(t *testing.T) {
	err := error(&Error{Site: SiteSPQ, Draw: 3})
	if !IsTransient(err) {
		t.Error("injected fault not transient")
	}
	if !IsTransient(fmt.Errorf("labeling zone 4: %w", err)) {
		t.Error("wrapped injected fault not transient")
	}
	if IsTransient(errors.New("disk on fire")) {
		t.Error("plain error reported transient")
	}
	if IsTransient(nil) {
		t.Error("nil error reported transient")
	}
}

func TestDelayInjection(t *testing.T) {
	spec, _ := ParseSpec("spq:delay=5ms")
	inj := New(spec)
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept += d }
	for i := 0; i < 3; i++ {
		if err := inj.check(SiteSPQ); err != nil {
			t.Fatalf("fail=0 site injected an error: %v", err)
		}
	}
	if slept != 15*time.Millisecond {
		t.Errorf("slept %v, want 15ms", slept)
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	prev := Enable(nil)
	defer Enable(prev)

	if err := Check(SiteSPQ); err != nil {
		t.Fatalf("disabled Check injected: %v", err)
	}
	spec, _ := ParseSpec("spq:fail=1")
	Enable(New(spec))
	if err := Check(SiteSPQ); err == nil {
		t.Fatal("fail=1 site did not inject")
	}
	if err := Check(SiteSnapshot); err != nil {
		t.Fatalf("unconfigured site injected: %v", err)
	}
	Enable(nil)
	if err := Check(SiteSPQ); err != nil {
		t.Fatalf("Check after Enable(nil) injected: %v", err)
	}
}

func TestCounts(t *testing.T) {
	spec, _ := ParseSpec("seed=1;spq:fail=1;hoptree:fail=0")
	inj := New(spec)
	for i := 0; i < 4; i++ {
		inj.check(SiteSPQ)
		inj.check(SiteHopTree)
	}
	c := inj.Counts()
	if c[SiteSPQ] != 4 || c[SiteHopTree] != 0 {
		t.Errorf("counts = %v", c)
	}
}

func TestConcurrentChecks(t *testing.T) {
	spec, _ := ParseSpec("seed=3;spq:fail=0.5")
	inj := New(spec)
	var wg sync.WaitGroup
	var fired sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := inj.check(SiteSPQ); err != nil {
					var fe *Error
					errors.As(err, &fe)
					fired.Store(fe.Draw, true)
				}
			}
		}()
	}
	wg.Wait()
	var n int64
	fired.Range(func(_, _ any) bool { n++; return true })
	if got := inj.Counts()[SiteSPQ]; got != n {
		t.Errorf("injected count %d but %d distinct draws fired", got, n)
	}
}
