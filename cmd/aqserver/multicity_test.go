package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/gtfs"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
	"accessquery/internal/synth"
)

// Multi-city fixtures: two tiny cities plus a second coventry generation
// to swap in, built once and saved as snapshots so each test can open a
// fresh registry cheaply. Deliberately smaller than the shared engine —
// these tests run many engine queries under the race detector.
var (
	mcOnce sync.Once
	mcErr  error
	mcDir  string // covA.snap, covB.snap, bham.snap
)

func buildSnap(dir, name string, cfg synth.Config, scale float64) error {
	city, err := synth.Generate(synth.Scaled(cfg, scale))
	if err != nil {
		return err
	}
	e, err := core.NewEngine(city, core.EngineOptions{
		Interval: gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday},
	})
	if err != nil {
		return err
	}
	return e.SaveSnapshot(filepath.Join(dir, name))
}

func multiCitySnaps(t *testing.T) string {
	t.Helper()
	mcOnce.Do(func() {
		mcDir, mcErr = os.MkdirTemp("", "aqserver-multicity-*")
		if mcErr != nil {
			return
		}
		for _, s := range []struct {
			name  string
			cfg   synth.Config
			scale float64
		}{
			{"covA.snap", synth.Coventry(), 0.05},
			{"covB.snap", synth.Coventry(), 0.06},
			{"bham.snap", synth.Birmingham(), 0.04},
		} {
			if mcErr = buildSnap(mcDir, s.name, s.cfg, s.scale); mcErr != nil {
				return
			}
		}
	})
	if mcErr != nil {
		t.Fatal(mcErr)
	}
	return mcDir
}

func multiCityServer(t *testing.T, cfg serve.Config) (*server, *registry.Registry) {
	t.Helper()
	dir := multiCitySnaps(t)
	reg, err := registry.Open([]registry.TenantSpec{
		{Name: "coventry", Path: filepath.Join(dir, "covA.snap")},
		{Name: "birmingham", Path: filepath.Join(dir, "bham.snap")},
	}, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(reg, cfg, serve.RunnerConfig{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.mgr.Shutdown(ctx)
	})
	return s, reg
}

// queryResponse is the slice of the /v1/query body these tests care about.
type queryResponse struct {
	Fairness float64 `json:"fairness"`
	Cache    struct {
		Hit        bool   `json:"hit"`
		City       string `json:"city"`
		Epoch      uint64 `json:"epoch"`
		EpochStale bool   `json:"epoch_stale"`
	} `json:"cache"`
	Stale *struct {
		Epoch uint64 `json:"epoch"`
	} `json:"stale"`
}

func postQueryResp(t *testing.T, s *server, target, body string) queryResponse {
	t.Helper()
	rec := postQuery(s, target, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	var out queryResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMultiCityRouting: the city field (body or query string) routes to
// the named tenant, responses carry {city, epoch} provenance, identical
// queries against different cities do not share cache entries, and an
// unknown city is a 404 with the stable error code.
func TestMultiCityRouting(t *testing.T) {
	s, reg := multiCityServer(t, serve.Config{Workers: 2})

	cov := postQueryResp(t, s, "/v1/query", `{"category": "school", "city": "coventry"}`)
	if cov.Cache.City != "coventry" || cov.Cache.Epoch != 1 || cov.Cache.Hit {
		t.Errorf("coventry run: %+v", cov.Cache)
	}
	// The identical body routed to the other tenant must be a distinct
	// query — a fresh run, not a cache hit on coventry's entry.
	bham := postQueryResp(t, s, "/v1/query?city=Birmingham", `{"category": "school", "city": "coventry"}`)
	if bham.Cache.City != "birmingham" || bham.Cache.Hit {
		t.Errorf("birmingham run: %+v", bham.Cache)
	}
	// No city anywhere: the default tenant (first in the spec) answers,
	// and the earlier coventry entry is reused.
	def := postQueryResp(t, s, "/v1/query", `{"category": "school"}`)
	if def.Cache.City != "coventry" || !def.Cache.Hit {
		t.Errorf("default run: %+v", def.Cache)
	}
	if _, ok := reg.Get("coventry"); !ok {
		t.Fatal("registry lost its tenant")
	}

	rec := postQuery(s, "/v1/query", `{"category": "school", "city": "atlantis"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown city status %d: %s", rec.Code, rec.Body.String())
	}
	if env := decodeError(t, rec); env.Error.Code != "unknown_city" {
		t.Errorf("unknown city error code %q", env.Error.Code)
	}
}

// TestSwapRunsOnNewEpoch: after a hot-swap, a fingerprint cached on the
// old epoch is not answered from that entry — it runs on the new epoch,
// and that run's answer is what the next identical query hits.
func TestSwapRunsOnNewEpoch(t *testing.T) {
	s, reg := multiCityServer(t, serve.Config{Workers: 2})
	s.snapDir = multiCitySnaps(t)

	first := postQueryResp(t, s, "/v1/query", `{"category": "school", "seed": 41}`)
	if first.Cache.Hit || first.Cache.Epoch != 1 || first.Cache.EpochStale {
		t.Fatalf("first run: %+v", first.Cache)
	}

	rec := do(s, http.MethodPost, "/v1/cities/coventry/snapshots/covB:activate", "")
	if rec.Code != http.StatusCreated {
		t.Fatalf("swap status %d: %s", rec.Code, rec.Body.String())
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/cities/coventry" {
		t.Fatalf("swap Location = %q", loc)
	}
	var swap struct {
		City struct {
			Epoch uint64 `json:"epoch"`
		} `json:"city"`
		RetiredEpoch uint64 `json:"retired_epoch"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&swap); err != nil {
		t.Fatal(err)
	}
	if swap.City.Epoch != 2 || swap.RetiredEpoch != 1 {
		t.Fatalf("swap response: %+v", swap)
	}

	// The same fingerprint runs on the new epoch, then hits its own entry.
	rerun := postQueryResp(t, s, "/v1/query", `{"category": "school", "seed": 41}`)
	if rerun.Cache.Hit || rerun.Cache.Epoch != 2 || rerun.Cache.EpochStale {
		t.Errorf("post-swap rerun: %+v", rerun.Cache)
	}
	hit := postQueryResp(t, s, "/v1/query", `{"category": "school", "seed": 41}`)
	if !hit.Cache.Hit || hit.Cache.Epoch != 2 || hit.Cache.EpochStale {
		t.Errorf("post-swap hit: %+v", hit.Cache)
	}

	// A bad snapshot is refused with 422 and the current epoch keeps
	// serving.
	s.snapDir = t.TempDir()
	if err := os.WriteFile(s.snapshotPath("bad"), []byte("AQSNAPnot-really"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = do(s, http.MethodPost, "/v1/cities/coventry/snapshots/bad:activate", "")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad snapshot status %d: %s", rec.Code, rec.Body.String())
	}
	if env := decodeError(t, rec); env.Error.Code != "bad_snapshot" {
		t.Errorf("bad snapshot error code %q", env.Error.Code)
	}
	tn, _ := reg.Get("coventry")
	if tn.Epoch() != 2 {
		t.Errorf("epoch %d after refused swap, want 2", tn.Epoch())
	}
}

// TestSwapUnderLoad hammers the full HTTP stack — concurrent queries
// against both tenants while coventry's engine is hot-swapped repeatedly —
// and requires that no query fails, every answer carries a valid
// {city, epoch} pair, in-flight runs finish on the generation they
// acquired, and every displaced generation drains.
func TestSwapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("swap-under-load hammer")
	}
	// Cache disabled: every request must take the engine path so swaps are
	// continuously raced against real runs.
	s, reg := multiCityServer(t, serve.Config{Workers: 4, CacheSize: -1, QueueDepth: 256})
	s.snapDir = multiCitySnaps(t)
	tn, _ := reg.Get("coventry")

	const swaps = 6
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		epochs   = map[uint64]int{} // observed coventry epochs
		failures []string
	)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			city := "coventry"
			if g == 3 {
				city = "birmingham" // untouched tenant keeps serving throughout
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"category": "school", "city": %q, "seed": %d}`, city, g*10000+i)
				rec := postQuery(s, "/v1/query", body)
				var out queryResponse
				mu.Lock()
				switch {
				case rec.Code != http.StatusOK:
					failures = append(failures, fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String()))
				case json.NewDecoder(rec.Body).Decode(&out) != nil || out.Cache.City != city || out.Cache.Epoch == 0:
					failures = append(failures, fmt.Sprintf("bad provenance: %+v", out.Cache))
				case city == "coventry":
					epochs[out.Cache.Epoch]++
				case out.Cache.Epoch != 1:
					failures = append(failures, fmt.Sprintf("birmingham epoch %d, want 1", out.Cache.Epoch))
				}
				done := len(failures) > 0
				mu.Unlock()
				if done {
					return
				}
			}
		}(g)
	}

	snaps := []string{"covB", "covA"}
	for i := 0; i < swaps; i++ {
		time.Sleep(50 * time.Millisecond) // let queries race the current epoch
		rec := do(s, http.MethodPost, "/v1/cities/coventry/snapshots/"+snaps[i%2]+":activate", "")
		if rec.Code != http.StatusCreated {
			t.Errorf("swap %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d failed queries; first: %s", len(failures), failures[0])
	}
	if tn.Info().Swaps != swaps {
		t.Errorf("swaps %d, want %d", tn.Info().Swaps, swaps)
	}
	maxEpoch := uint64(swaps + 1)
	for ep := range epochs {
		if ep < 1 || ep > maxEpoch {
			t.Errorf("impossible epoch %d observed (max installed %d)", ep, maxEpoch)
		}
	}
	if len(epochs) < 2 {
		t.Errorf("only epochs %v observed under load; expected runs on at least two generations", epochs)
	}
	// Refcounts drain: once the hammer stops, no acquired references
	// remain outstanding on the current generation.
	deadline := time.Now().Add(5 * time.Second)
	for tn.Info().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count %d never drained", tn.Info().InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
