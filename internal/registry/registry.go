// Package registry owns the city engines a multi-tenant server runs on.
//
// The paper's access queries are always asked of a city; the registry is
// the sharding unit that lets one process serve many of them. Each city is
// a Tenant wrapping an epoch-aware engine provider: Acquire hands out the
// current engine together with its epoch and a release func, and Swap
// installs a successor engine atomically. New queries resolve the new
// epoch the instant the swap lands, in-flight runs finish on the engine
// they acquired, and the old engine is retired only when its refcount
// drains to zero — a zero-downtime hot-swap with no lock held across an
// engine run.
//
// Tenants load from a spec like
//
//	coventry,birmingham=path/to/bham.snap
//
// where a bare name builds the synth preset at the configured scale and
// name=path restores a saved snapshot (see core.LoadEngine). Snapshot-backed
// tenants can later be re-loaded in place — explicitly (the swap API) or by
// a SIGHUP-driven ReloadChanged sweep that re-reads any snapshot file whose
// size or mtime changed.
package registry

import (
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/core"
	"accessquery/internal/gtfs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/olog"
	"accessquery/internal/synth"
)

// TenantSpec names one tenant of the -cities spec: a preset city name, or
// a name bound to a snapshot path.
type TenantSpec struct {
	Name string
	Path string // empty for preset-built tenants
}

// ParseSpec splits a -cities flag value ("coventry,birmingham=b.snap")
// into tenant specs, validating names and rejecting duplicates.
func ParseSpec(spec string) ([]TenantSpec, error) {
	var out []TenantSpec
	seen := make(map[string]bool)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, path, _ := strings.Cut(item, "=")
		name = strings.ToLower(strings.TrimSpace(name))
		path = strings.TrimSpace(path)
		if name == "" {
			return nil, fmt.Errorf("registry: empty city name in spec item %q", item)
		}
		if strings.ContainsAny(name, "/ \t") {
			return nil, fmt.Errorf("registry: city name %q may not contain slashes or spaces", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("registry: duplicate city %q in spec", name)
		}
		seen[name] = true
		out = append(out, TenantSpec{Name: name, Path: path})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("registry: empty -cities spec")
	}
	return out, nil
}

// Options configure how the registry builds engines.
type Options struct {
	// Scale shrinks preset-built cities (snapshot tenants carry their own
	// recorded configuration); default 0.25.
	Scale float64
	// Interval is the served time interval for preset-built engines;
	// default weekday AM peak.
	Interval gtfs.Interval
	// Parallelism sizes the pre-processing worker pool for preset builds
	// and the feature-cache warm after every build or load.
	Parallelism int
	// WarmCaches primes the feature-extractor caches after each build or
	// swap, moving first-query cache misses into the swap instead of the
	// serving path.
	WarmCaches bool
	// Bank, when non-nil, is the shared cross-query label bank. The
	// registry owns its segment lifecycle: every install retires the
	// tenant's older {city, epoch} segments, and a transit-free scenario
	// apply seeds the old segment's entries into the new epoch first.
	Bank *bank.Bank
	// Logger receives swap and retire events; default olog.Default.
	Logger *slog.Logger
	// Accountant, when non-nil, bills each installed engine's preparation
	// time to its city, so tenant cost reports cover builds and swaps as
	// well as queries. Nil disables build billing.
	Accountant *account.Accountant
	// now overrides the clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Interval.End <= o.Interval.Start {
		o.Interval = gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"}
	}
	if o.Logger == nil {
		o.Logger = olog.Default
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// epochEngine is one installed engine generation. refs starts at 1 — the
// install bias — so the engine stays alive while it is current; Swap drops
// the bias and the last in-flight release retires it. Each generation holds
// its engine's snapshot mapping (core.Engine.RetainSnapshot) until it
// drains.
type epochEngine struct {
	engine *core.Engine
	epoch  uint64
	built  time.Time
	source string

	refs      atomic.Int64
	drainOnce sync.Once
	drained   chan struct{}
	onDrain   func(*epochEngine)
}

func (ee *epochEngine) release() {
	if ee.refs.Add(-1) == 0 {
		ee.drainOnce.Do(func() {
			if ee.onDrain != nil {
				ee.onDrain(ee)
			}
			close(ee.drained)
		})
	}
}

// Retired is the handle Swap returns for the displaced engine generation:
// Drained closes once every in-flight run on it has released.
type Retired struct {
	Epoch   uint64
	Drained <-chan struct{}
}

// Tenant is one named city: an epoch-aware engine provider plus, for a
// snapshot-backed tenant, the file it reloads from.
type Tenant struct {
	Name string

	reg *Registry
	cur atomic.Pointer[epochEngine]

	// swapMu serializes swaps (and the builds behind them); it is never
	// held while queries run.
	swapMu    sync.Mutex
	path      string // non-empty for snapshot-backed tenants
	fileSize  int64  // snapshot file identity at last load, for ReloadChanged
	fileMtime time.Time

	nextEpoch atomic.Uint64
	swaps     atomic.Int64
	metrics   *tenantGauges

	// scenario holds the applied-deltas stack when a scenario is active;
	// guarded by swapMu. Non-scenario swaps clear it.
	scenario *scenarioState
}

// Acquire returns the tenant's current engine, its epoch, and a release
// func the caller must invoke when the run finishes. The
// increment-then-revalidate loop makes the handout atomic against Swap: a
// caller can never hold an engine whose refcount already drained, and a
// swap landing mid-acquire simply retries onto the new generation.
func (t *Tenant) Acquire() (*core.Engine, uint64, func()) {
	for {
		ee := t.cur.Load()
		ee.refs.Add(1)
		if t.cur.Load() == ee {
			t.metrics.inflight.Inc()
			var once sync.Once
			return ee.engine, ee.epoch, func() {
				once.Do(func() {
					t.metrics.inflight.Dec()
					ee.release()
				})
			}
		}
		// A swap displaced ee between load and increment; undo and retry on
		// the new generation.
		ee.release()
	}
}

// Epoch returns the tenant's current engine epoch.
func (t *Tenant) Epoch() uint64 { return t.cur.Load().epoch }

// Engine returns the current engine without taking a reference. Use it
// only for reads that cannot outlive a request (summaries, zone lists);
// anything that runs work must Acquire.
func (t *Tenant) Engine() *core.Engine { return t.cur.Load().engine }

// Info is a point-in-time description of a tenant, shaped for the
// /v1/cities responses.
type Info struct {
	Name     string    `json:"name"`
	Epoch    uint64    `json:"epoch"`
	Built    time.Time `json:"built"`
	Source   string    `json:"source"`
	Zones    int       `json:"zones"`
	Stops    int       `json:"stops"`
	Routes   int       `json:"routes"`
	Interval string    `json:"interval"`
	Swaps    int64     `json:"swaps"`
	InFlight int64     `json:"in_flight"`
	PrepMS   int64     `json:"prep_ms"`
}

// Info snapshots the tenant's current generation.
func (t *Tenant) Info() Info {
	ee := t.cur.Load()
	c := ee.engine.City
	return Info{
		Name:     t.Name,
		Epoch:    ee.epoch,
		Built:    ee.built,
		Source:   ee.source,
		Zones:    len(c.Zones),
		Stops:    len(c.Feed.Stops),
		Routes:   len(c.Feed.Routes),
		Interval: ee.engine.Interval.Label,
		Swaps:    t.swaps.Load(),
		InFlight: ee.refs.Load() - 1,
		PrepMS:   ee.engine.PrepDuration.Milliseconds(),
	}
}

// install makes e the tenant's current engine and returns the retired
// generation's handle (nil on first install). It must be called with
// swapMu held.
//
// Label-bank lifecycle rides the install: seedBank carries the displaced
// epoch's priced trips into the new segment (legal only when the new
// engine provably prices every trip identically — see delta.BankImpactOf),
// and every install retires the tenant's older segments so no query can
// drain a journey computed on a superseded timetable.
func (t *Tenant) install(e *core.Engine, source string, seedBank bool) *Retired {
	opts := t.reg.opts
	ee := &epochEngine{
		engine:  e,
		epoch:   t.nextEpoch.Add(1),
		built:   opts.now(),
		source:  source,
		drained: make(chan struct{}),
	}
	ee.refs.Store(1) // install bias
	e.RetainSnapshot()
	log := opts.Logger
	ee.onDrain = func(old *epochEngine) {
		old.engine.ReleaseSnapshot()
		t.metrics.retired.Inc()
		log.Info("engine retired",
			"city", t.Name, "epoch", old.epoch)
	}
	old := t.cur.Swap(ee)
	t.metrics.epoch.Set(float64(ee.epoch))
	opts.Accountant.RecordBuild(t.Name, e.PrepDuration)
	if b := opts.Bank; b != nil {
		if seedBank && old != nil {
			seeded := b.CarryForward(t.Name, old.epoch, ee.epoch)
			if seeded > 0 {
				log.Info("bank segment seeded forward",
					"city", t.Name, "from_epoch", old.epoch,
					"epoch", ee.epoch, "entries", seeded)
			}
		}
		b.RetireBelow(t.Name, ee.epoch)
	}
	if old == nil {
		return nil
	}
	t.swaps.Add(1)
	t.metrics.swaps.Inc()
	log.Info("engine swapped",
		"city", t.Name,
		"old_epoch", old.epoch,
		"epoch", ee.epoch,
		"source", source)
	retired := &Retired{Epoch: old.epoch, Drained: old.drained}
	old.release() // drop the install bias; in-flight runs keep it alive
	return retired
}

// SwapSnapshot loads the snapshot at path and installs it as the tenant's
// next epoch. A snapshot that fails verification (see core.SnapshotError)
// or names a different city is refused and the current epoch keeps
// serving. When path is empty the tenant's recorded snapshot path is
// re-loaded.
func (t *Tenant) SwapSnapshot(path string) (Info, *Retired, error) {
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	if path == "" {
		path = t.path
	}
	if path == "" {
		return Info{}, nil, fmt.Errorf("registry: tenant %s is preset-built and no snapshot path was given", t.Name)
	}
	e, err := t.loadSnapshot(path)
	if err != nil {
		return Info{}, nil, fmt.Errorf("registry: refusing swap for %s (epoch %d keeps serving): %w", t.Name, t.Epoch(), err)
	}
	retired := t.install(e, "snapshot:"+path, false)
	t.clearScenario()
	return t.Info(), retired, nil
}

// loadSnapshot restores an engine from the snapshot at path for this
// tenant: it loads and verifies the file, refuses a snapshot of another
// city, warms the feature caches when configured, and adopts the path and
// file identity so later reloads track the new file. Called with swapMu
// held, or by Open before the tenant is published.
func (t *Tenant) loadSnapshot(path string) (*core.Engine, error) {
	e, err := core.LoadEngine(path)
	if err != nil {
		return nil, err
	}
	if cn := e.City.Name; !cityMatches(cn, t.Name) {
		e.ReleaseSnapshot()
		return nil, fmt.Errorf("snapshot %s is for city %q, not %q", path, cn, t.Name)
	}
	if t.reg.opts.WarmCaches {
		e.WarmFeatureCaches(t.reg.opts.Parallelism)
	}
	// The file's size and mtime let ReloadChanged detect replacement.
	t.path = path
	if fi, err := os.Stat(path); err == nil {
		t.fileSize, t.fileMtime = fi.Size(), fi.ModTime()
	} else {
		t.fileSize, t.fileMtime = 0, time.Time{}
	}
	return e, nil
}

// fileChanged reports whether the snapshot file differs from the identity
// recorded at last load. Called with swapMu held.
func (t *Tenant) fileChanged() bool {
	if t.path == "" {
		return false
	}
	fi, err := os.Stat(t.path)
	if err != nil {
		return false // a vanished file is not a new engine
	}
	return fi.Size() != t.fileSize || !fi.ModTime().Equal(t.fileMtime)
}

// Registry owns the tenant set. The set is fixed at Open; what changes at
// runtime is each tenant's engine generation.
type Registry struct {
	opts    Options
	tenants map[string]*Tenant
	order   []string // spec order; order[0] is the default tenant
}

// Open builds a registry from tenant specs: bare names become synth
// presets at opts.Scale, name=path tenants restore snapshots. Engines are
// built eagerly so a server that comes up is ready to serve every tenant.
func Open(specs []TenantSpec, opts Options) (*Registry, error) {
	opts = opts.withDefaults()
	r := &Registry{opts: opts, tenants: make(map[string]*Tenant)}
	for _, spec := range specs {
		name := strings.ToLower(spec.Name)
		if _, dup := r.tenants[name]; dup {
			return nil, fmt.Errorf("registry: duplicate city %q", name)
		}
		t := &Tenant{Name: name, reg: r, metrics: gaugesFor(name)}
		var (
			e      *core.Engine
			source string
		)
		if spec.Path != "" {
			var err error
			if e, err = t.loadSnapshot(spec.Path); err != nil {
				return nil, fmt.Errorf("registry: loading %s: %w", name, err)
			}
			source = "snapshot:" + spec.Path
		} else {
			cfg, err := presetConfig(name, opts.Scale)
			if err != nil {
				return nil, err
			}
			e, err = r.buildPreset(cfg)
			if err != nil {
				return nil, fmt.Errorf("registry: building %s: %w", name, err)
			}
			source = fmt.Sprintf("synth:%s@%g", name, opts.Scale)
		}
		t.install(e, source, false)
		opts.Logger.Info("city loaded",
			"city", name, "source", source,
			"zones", len(e.City.Zones), "prep", e.PrepDuration.String())
		r.tenants[name] = t
		r.order = append(r.order, name)
	}
	mTenants.Set(float64(len(r.order)))
	return r, nil
}

// cityMatches reports whether an engine's city name belongs to the named
// tenant. synth.Scaled suffixes city names with the scale factor
// ("Coventry-x0.05"), so the comparison also accepts the base name before
// a trailing -x<float> suffix.
func cityMatches(engineName, tenant string) bool {
	if strings.EqualFold(engineName, tenant) {
		return true
	}
	if i := strings.LastIndex(engineName, "-x"); i > 0 {
		if _, err := strconv.ParseFloat(engineName[i+2:], 64); err == nil {
			return strings.EqualFold(engineName[:i], tenant)
		}
	}
	return false
}

// presetConfig resolves a synth preset by name at the given scale.
func presetConfig(name string, scale float64) (synth.Config, error) {
	var cfg synth.Config
	switch strings.ToLower(name) {
	case "birmingham":
		cfg = synth.Birmingham()
	case "coventry":
		cfg = synth.Coventry()
	default:
		return cfg, fmt.Errorf("registry: unknown city preset %q (want coventry or birmingham, or name=snapshot.snap)", name)
	}
	return synth.Scaled(cfg, scale), nil
}

// buildPreset generates a city and pre-processes its engine.
func (r *Registry) buildPreset(cfg synth.Config) (*core.Engine, error) {
	city, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(city, core.EngineOptions{
		Interval:    r.opts.Interval,
		Parallelism: r.opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if r.opts.WarmCaches {
		e.WarmFeatureCaches(r.opts.Parallelism)
	}
	return e, nil
}

// Get resolves a tenant by (case-insensitive) name; a blank name is the
// default tenant.
func (r *Registry) Get(name string) (*Tenant, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		name = r.order[0]
	}
	t, ok := r.tenants[name]
	return t, ok
}

// DefaultName is the first tenant of the spec — the city requests without
// an explicit city field resolve to.
func (r *Registry) DefaultName() string { return r.order[0] }

// Names lists tenants in spec order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// EpochOf resolves a city name as Get does and reports the tenant's
// canonical name and current epoch; ok is false for unknown cities. Shaped
// to plug straight into serve.Config.EpochOf.
func (r *Registry) EpochOf(name string) (string, uint64, bool) {
	t, ok := r.Get(name)
	if !ok {
		return "", 0, false
	}
	return t.Name, t.Epoch(), true
}

// Infos snapshots every tenant in spec order.
func (r *Registry) Infos() []Info {
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.tenants[name].Info())
	}
	return out
}

// SwapResult reports one tenant's outcome of a ReloadChanged sweep.
type SwapResult struct {
	City string
	Info Info
	Err  error
}

// ReloadChanged re-loads every snapshot-backed tenant whose file size or
// mtime changed since it was last read — the SIGHUP handler's body. A
// tenant whose new snapshot fails verification keeps its current epoch and
// reports the error; other tenants still swap.
func (r *Registry) ReloadChanged() []SwapResult {
	var out []SwapResult
	for _, name := range r.order {
		t := r.tenants[name]
		t.swapMu.Lock()
		changed := t.fileChanged()
		t.swapMu.Unlock()
		if !changed {
			continue
		}
		info, _, err := t.SwapSnapshot("")
		if err != nil {
			r.opts.Logger.Warn("snapshot reload refused",
				"city", name, "error", err)
		}
		out = append(out, SwapResult{City: name, Info: info, Err: err})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].City < out[j].City })
	return out
}
