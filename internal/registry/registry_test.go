package registry

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/gtfs"
	"accessquery/internal/obs/account"
	"accessquery/internal/synth"
)

// Engines are expensive to pre-process, so the whole package shares two
// read-only generations of a tiny coventry (the hammer tests only exercise
// handout/refcount machinery, never mutate the engines).
var (
	buildOnce        sync.Once
	engineA, engineB *core.Engine
	buildErr         error
)

func testInterval() gtfs.Interval {
	return gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"}
}

func buildTiny(t *testing.T, scale float64) *core.Engine {
	t.Helper()
	city, err := synth.Generate(synth.Scaled(synth.Coventry(), scale))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(city, core.EngineOptions{Interval: testInterval()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sharedEngines(t *testing.T) (*core.Engine, *core.Engine) {
	t.Helper()
	buildOnce.Do(func() {
		engineA = buildTiny(t, 0.05)
		engineB = buildTiny(t, 0.07)
	})
	if engineA == nil || engineB == nil {
		t.Fatal(buildErr, "shared engines failed to build in an earlier test")
	}
	return engineA, engineB
}

func TestParseSpec(t *testing.T) {
	specs, err := ParseSpec("coventry, Birmingham=path/to/b.snap ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantSpec{{Name: "coventry"}, {Name: "birmingham", Path: "path/to/b.snap"}}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{"", " , ", "coventry,coventry", "=x.snap", "bad name"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// openTwoTenants builds a registry whose tenants both hand out prebuilt
// engines, bypassing preset builds for speed.
func openTwoTenants(t *testing.T) *Registry {
	t.Helper()
	a, _ := sharedEngines(t)
	snapPath := filepath.Join(t.TempDir(), "cov.snap")
	if err := a.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	r, err := Open([]TenantSpec{{Name: "coventry", Path: snapPath}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOpenSnapshotTenant(t *testing.T) {
	r := openTwoTenants(t)
	if got := r.DefaultName(); got != "coventry" {
		t.Errorf("default %q, want coventry", got)
	}
	tn, ok := r.Get("Coventry") // case-insensitive
	if !ok {
		t.Fatal("tenant not found")
	}
	if tn.Epoch() != 1 {
		t.Errorf("fresh tenant epoch %d, want 1", tn.Epoch())
	}
	if name, ep, ok := r.EpochOf("Coventry"); !ok || name != "coventry" || ep != 1 {
		t.Errorf("EpochOf = %q, %d, %v", name, ep, ok)
	}
	if name, ep, ok := r.EpochOf(""); !ok || name != "coventry" || ep != 1 {
		t.Errorf("EpochOf(\"\") = %q, %d, %v, want the default tenant", name, ep, ok)
	}
	if _, _, ok := r.EpochOf("atlantis"); ok {
		t.Error("EpochOf should not resolve unknown cities")
	}
	infos := r.Infos()
	if len(infos) != 1 || infos[0].Zones == 0 || infos[0].Epoch != 1 {
		t.Errorf("infos = %+v", infos)
	}
	e, epoch, release := tn.Acquire()
	if e == nil || epoch != 1 {
		t.Fatalf("acquire: engine=%v epoch=%d", e, epoch)
	}
	if got := tn.Info().InFlight; got != 1 {
		t.Errorf("in-flight %d, want 1", got)
	}
	release()
	release() // idempotent
	if got := tn.Info().InFlight; got != 0 {
		t.Errorf("in-flight after release %d, want 0", got)
	}
}

func TestOpenRejectsWrongCitySnapshot(t *testing.T) {
	a, _ := sharedEngines(t)
	path := filepath.Join(t.TempDir(), "cov.snap")
	if err := a.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open([]TenantSpec{{Name: "birmingham", Path: path}}, Options{}); err == nil {
		t.Error("a coventry snapshot must not load as the birmingham tenant")
	}
}

// swapEngine installs an already-built engine as the tenant's next epoch
// the way SwapSnapshot does once it has loaded and checked a file, so the
// generation machinery can be driven without writing snapshots.
func swapEngine(tn *Tenant, e *core.Engine, source string) (Info, *Retired) {
	tn.swapMu.Lock()
	defer tn.swapMu.Unlock()
	retired := tn.install(e, source, false)
	tn.clearScenario()
	return tn.Info(), retired
}

func TestSwapEngineBumpsEpochAndDrains(t *testing.T) {
	a, b := sharedEngines(t)
	r := openTwoTenants(t)
	tn, _ := r.Get("coventry")

	// Hold a reference across the swap: the old generation must survive
	// until it is released.
	oldEngine, oldEpoch, release := tn.Acquire()
	info, retired := swapEngine(tn, b, "test:b")
	if info.Epoch != oldEpoch+1 {
		t.Errorf("epoch %d, want %d", info.Epoch, oldEpoch+1)
	}
	if retired == nil || retired.Epoch != oldEpoch {
		t.Fatalf("retired = %+v", retired)
	}
	select {
	case <-retired.Drained:
		t.Fatal("old generation drained while a reference was outstanding")
	case <-time.After(10 * time.Millisecond):
	}
	// New acquisitions see the new generation immediately.
	e2, ep2, rel2 := tn.Acquire()
	if e2 != b || ep2 != info.Epoch {
		t.Errorf("post-swap acquire: engine=%p epoch=%d, want %p/%d", e2, ep2, b, info.Epoch)
	}
	rel2()
	_ = oldEngine
	release()
	select {
	case <-retired.Drained:
	case <-time.After(2 * time.Second):
		t.Fatal("old generation never drained after the last release")
	}
	if got := tn.Info().Swaps; got != 1 {
		t.Errorf("swaps %d, want 1", got)
	}
	// Restore generation A for other tests sharing the registry engines.
	swapEngine(tn, a, "test:a")
}

func TestSwapSnapshotRejectsWrongCity(t *testing.T) {
	r := openTwoTenants(t)
	tn, _ := r.Get("coventry")
	city, err := synth.Generate(synth.Scaled(synth.Birmingham(), 0.04))
	if err != nil {
		t.Fatal(err)
	}
	bham, err := core.NewEngine(city, core.EngineOptions{Interval: testInterval()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bham.snap")
	if err := bham.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	before := tn.Epoch()
	if _, _, err := tn.SwapSnapshot(path); err == nil {
		t.Error("swapping a birmingham snapshot into the coventry tenant must fail")
	}
	if tn.Epoch() != before {
		t.Error("refused swap must not bump the epoch")
	}
}

func TestSwapSnapshotRefusesCorruptAndKeepsServing(t *testing.T) {
	r := openTwoTenants(t)
	tn, _ := r.Get("coventry")
	before := tn.Epoch()

	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("AQSNAPgarbage-that-is-not-a-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := tn.SwapSnapshot(bad)
	if err == nil {
		t.Fatal("corrupt snapshot must refuse to swap")
	}
	var serr *core.SnapshotError
	if !errors.As(err, &serr) {
		t.Errorf("want *core.SnapshotError in chain, got %v", err)
	}
	if tn.Epoch() != before {
		t.Error("refused swap must keep the old epoch serving")
	}
	// The tenant still answers acquisitions.
	e, ep, release := tn.Acquire()
	if e == nil || ep != before {
		t.Errorf("acquire after refused swap: %v/%d", e, ep)
	}
	release()
}

func TestReloadChangedSwapsOnlyChangedFiles(t *testing.T) {
	a, b := sharedEngines(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cov.snap")
	if err := a.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open([]TenantSpec{{Name: "coventry", Path: path}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing changed: no swaps.
	if res := r.ReloadChanged(); len(res) != 0 {
		t.Fatalf("unexpected reloads: %+v", res)
	}
	// Replace the snapshot with a different generation of the same city.
	if err := b.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	res := r.ReloadChanged()
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("reload results: %+v", res)
	}
	if res[0].Info.Epoch != 2 {
		t.Errorf("epoch %d after reload, want 2", res[0].Info.Epoch)
	}
	// A second sweep sees the recorded identity and does nothing.
	if res := r.ReloadChanged(); len(res) != 0 {
		t.Fatalf("second sweep should be a no-op, got %+v", res)
	}
}

// TestAcquireSwapRace hammers Acquire/release against repeated swaps under
// the race detector: no acquisition may ever observe a half-installed
// generation (nil engine, zero epoch, or an engine/epoch pair that was
// never installed), and every displaced generation must drain.
func TestAcquireSwapRace(t *testing.T) {
	a, b := sharedEngines(t)
	r := openTwoTenants(t)
	tn, _ := r.Get("coventry")

	// Record which engine was installed at each epoch, so acquirers can
	// validate the pair they got. Epoch 1 is the snapshot restore of A's
	// city — a distinct *Engine; epochs >= 2 alternate b, a, b, a...
	const swaps = 200
	installed := sync.Map{}
	installed.Store(uint64(1), tn.Engine())

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e, epoch, release := tn.Acquire()
				if e == nil || epoch == 0 {
					select {
					case errs <- "acquired a half-installed generation":
					default:
					}
					return
				}
				if want, ok := installed.Load(epoch); ok && want.(*core.Engine) != e {
					select {
					case errs <- "engine/epoch pair was never installed":
					default:
					}
					return
				}
				release()
			}
		}()
	}

	var retirees []*Retired
	for i := 0; i < swaps; i++ {
		next := a
		if i%2 == 0 {
			next = b
		}
		// Acquirers may see the new epoch before it is recorded here; a pair
		// not recorded yet is skipped by their check, never misjudged.
		info, retired := swapEngine(tn, next, "test:hammer")
		installed.Store(info.Epoch, next)
		if retired != nil {
			retirees = append(retirees, retired)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	for _, ret := range retirees {
		select {
		case <-ret.Drained:
		case <-time.After(5 * time.Second):
			t.Fatalf("epoch %d never drained", ret.Epoch)
		}
	}
	if got := tn.Info().InFlight; got != 0 {
		t.Errorf("in-flight %d after hammer, want 0", got)
	}
	if got := tn.Info().Swaps; got != swaps {
		t.Errorf("swap count %d, want %d", got, swaps)
	}
}

// TestInstallBillsBuilds checks cost attribution for engine lifecycle: an
// accountant wired into the registry sees one billed build per install,
// keyed by city.
func TestInstallBillsBuilds(t *testing.T) {
	a, b := sharedEngines(t)
	snapPath := filepath.Join(t.TempDir(), "cov.snap")
	if err := a.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	acct := account.New()
	r, err := Open([]TenantSpec{{Name: "coventry", Path: snapPath}}, Options{Accountant: acct})
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := r.Get("coventry")
	swapEngine(tn, b, "test")
	snap := acct.Snapshot()
	if len(snap) != 1 || snap[0].City != "coventry" {
		t.Fatalf("snapshot = %+v, want coventry only", snap)
	}
	if snap[0].Builds != 2 {
		t.Errorf("Builds = %d, want 2 (open + swap)", snap[0].Builds)
	}
}
