package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"accessquery/internal/delta"
	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/olog"
	"accessquery/internal/registry"
)

// openCoventry builds a one-tenant registry from the coventry preset at a
// scale small enough for several engine runs under the race detector.
func openCoventry(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Open([]registry.TenantSpec{{Name: "coventry"}}, registry.Options{Scale: 0.05, Logger: olog.New(io.Discard, olog.LevelWarn)})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// cityManager wires a manager over reg exactly as the library's
// NewCityServeManager does: the registry runner, one tenant per city, and
// the registry as the manager's city resolver.
func cityManager(t *testing.T, reg *registry.Registry, cfg Config) *Manager {
	t.Helper()
	cfg.Tenants = len(reg.Names())
	cfg.EpochOf = reg.EpochOf
	m := NewManager(RegistryRunner(reg, RunnerConfig{}), cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// TestEmptyCityIsTheDefaultTenant: a request with no city is the default
// tenant's request. It shares that tenant's record and cache entry, and
// after a scenario change it runs on the new epoch instead of being
// answered, flagged stale, from the old one.
func TestEmptyCityIsTheDefaultTenant(t *testing.T) {
	reg := openCoventry(t)
	m := cityManager(t, reg, Config{Workers: 1})
	ask := func(step, city string) Snapshot {
		t.Helper()
		req := schoolReq()
		req.City = city
		job, err := m.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if _, err := m.Wait(context.Background(), job); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return job.Snapshot()
	}

	if s := ask("empty city", ""); s.CacheHit || s.City != "coventry" || s.Epoch != 1 {
		t.Fatalf("empty city: %+v, want a run on coventry epoch 1", s)
	}
	if s := ask("named city", "coventry"); !s.CacheHit || s.Epoch != 1 {
		t.Fatalf("named city: %+v, want the entry the empty city filled", s)
	}

	tn, _ := reg.Get("coventry")
	engine, _, release := tn.Acquire()
	route := string(engine.City.Feed.Routes[0].ID)
	release()
	if _, _, _, err := tn.ApplyScenario([]delta.Mutation{{Kind: delta.CloseRoute, Route: route}}); err != nil {
		t.Fatal(err)
	}

	if s := ask("empty city after scenario", ""); s.CacheHit || s.EpochStale || s.Epoch != 2 {
		t.Fatalf("empty city after scenario: %+v, want a run on epoch 2", s)
	}
	if s := ask("named city after scenario", "Coventry"); !s.CacheHit || s.EpochStale || s.Epoch != 2 {
		t.Fatalf("named city after scenario: %+v, want the epoch-2 entry", s)
	}
	ts := m.TenantStats()
	if len(ts) != 1 || ts[0].City != "coventry" || ts[0].Completed != 2 {
		t.Errorf("tenants = %+v, want one coventry record with 2 runs", ts)
	}
	if st := m.Stats(); st.Submitted != 4 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want 4 submitted, 2 cache hits", st)
	}
}

// TestUnknownCityRejectedAtSubmit: a city the registry does not serve is
// refused by Submit itself. It leaves no tenant record, no labelled series
// and no bill behind.
func TestUnknownCityRejectedAtSubmit(t *testing.T) {
	const city = "atlantis-unserved"
	reg := openCoventry(t)
	acct := account.New()
	m := cityManager(t, reg, Config{Workers: 1, Accountant: acct, SLO: testSLO(t, "avail=99")})
	req := schoolReq()
	req.City = city
	for _, submit := range []func(Request) (*Job, error){m.Submit, m.SubmitAsync} {
		if job, err := submit(req); !errors.Is(err, ErrUnknownCity) || job != nil {
			t.Fatalf("submit(%q) = %v, %v; want ErrUnknownCity", city, job, err)
		}
	}

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `city="`+city+`"`) {
			t.Errorf("unknown city left a series: %s", line)
		}
	}
	if ts := m.TenantStats(); len(ts) != 0 {
		t.Errorf("tenants = %+v, want none", ts)
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Errorf("stats = %+v, want nothing submitted", st)
	}
	for _, tc := range acct.Snapshot() {
		if tc.City == city {
			t.Errorf("unknown city billed: %+v", tc)
		}
	}
}
