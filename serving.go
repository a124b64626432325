package accessquery

import (
	"context"
	"io"

	"accessquery/internal/core"
	"accessquery/internal/obs"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
)

// The serving layer (internal/serve) turns an Engine into a multi-tenant
// query service: a bounded worker pool with admission control, an LRU
// result cache with TTL, and in-flight deduplication. These aliases expose
// it through the facade so programs embedding the engine can reuse the
// same machinery cmd/aqserver runs on.

// ServeRequest is a normalized, cache-keyed access-query request.
type ServeRequest = serve.Request

// ServeConfig sizes the serving layer: workers, queue depth, cache, and
// per-job timeout.
type ServeConfig = serve.Config

// ServeManager owns the worker pool, queue, cache, and job table.
type ServeManager = serve.Manager

// ServeRunFunc executes one request; typically a closure over
// Engine.RunContext.
type ServeRunFunc = serve.RunFunc

// ServeJob is a submitted query's handle.
type ServeJob = serve.Job

// ServeJobSnapshot is a point-in-time view of a job, including the
// per-stage latency breakdown once the run finishes.
type ServeJobSnapshot = serve.Snapshot

// ServeState is a job's lifecycle state.
type ServeState = serve.State

// Job lifecycle states.
const (
	ServeStateQueued    = serve.StateQueued
	ServeStateRunning   = serve.StateRunning
	ServeStateDone      = serve.StateDone
	ServeStateFailed    = serve.StateFailed
	ServeStateCancelled = serve.StateCancelled
)

// ServeStats are a manager's cumulative counters.
type ServeStats = serve.Stats

// Serving-layer sentinel errors.
var (
	// ErrQueueFull reports that admission control rejected a submission.
	ErrQueueFull = serve.ErrQueueFull
	// ErrShutdown reports a submission to a draining manager.
	ErrShutdown = serve.ErrShutdown
	// ErrUnknownJob reports a lookup of an expired or never-issued job ID.
	ErrUnknownJob = serve.ErrUnknownJob
	// ErrBreakerOpen reports a submission refused by the open circuit
	// breaker with no stale cache entry to fall back on.
	ErrBreakerOpen = serve.ErrBreakerOpen
	// ErrCancelled is the terminal error of a job cancelled via
	// ServeManager.Cancel.
	ErrCancelled = serve.ErrCancelled
	// ErrNotCancellable reports a cancel of an already-finished job.
	ErrNotCancellable = serve.ErrNotCancellable
	// ErrUnknownCity reports a request naming a city no tenant serves.
	ErrUnknownCity = serve.ErrUnknownCity
)

// NewServeManager starts a serving layer around run.
func NewServeManager(run ServeRunFunc, cfg ServeConfig) *ServeManager {
	return serve.NewManager(run, cfg)
}

// ServeTenantStats is one city's slice of a manager's admission state:
// breaker, queue share, and tenant-scoped counters.
type ServeTenantStats = serve.TenantStats

// The city registry (internal/registry) owns N named city engines and
// hands each out by epoch: queries acquire a refcounted engine reference,
// hot-swaps install a new epoch with zero downtime, and displaced
// generations drain as their in-flight runs release.

// CityRegistry owns the tenant set; open one with OpenCityRegistry.
type CityRegistry = registry.Registry

// CityTenant is one named city: an epoch-aware engine provider.
type CityTenant = registry.Tenant

// CityTenantSpec names one tenant: a synth preset, or a name=snapshot
// pair.
type CityTenantSpec = registry.TenantSpec

// CityRegistryOptions size preset builds and cache warming.
type CityRegistryOptions = registry.Options

// CityInfo is a point-in-time description of a tenant (epoch, provenance,
// size).
type CityInfo = registry.Info

// RetiredEpoch is the handle of a displaced engine generation; Drained
// closes when its last in-flight run releases.
type RetiredEpoch = registry.Retired

// ParseCitySpec parses a -cities style spec ("coventry,bham=b.snap").
func ParseCitySpec(spec string) ([]CityTenantSpec, error) {
	return registry.ParseSpec(spec)
}

// OpenCityRegistry eagerly builds or restores every tenant in the spec.
func OpenCityRegistry(specs []CityTenantSpec, opts CityRegistryOptions) (*CityRegistry, error) {
	return registry.Open(specs, opts)
}

// NewCityServeManager wires a serving layer over a city registry: requests
// route by their city field (blank meaning the default tenant, a city the
// registry does not serve refused by Submit with ErrUnknownCity), runs
// acquire the tenant's current engine epoch, and results carry {city,
// epoch} provenance. It is the multi-city counterpart of NewServeManager
// and what cmd/aqserver runs on.
func NewCityServeManager(reg *CityRegistry, cfg ServeConfig, rc ServeRunnerConfig) *ServeManager {
	cfg.Tenants = len(reg.Names())
	cfg.EpochOf = reg.EpochOf
	return serve.NewManager(serve.RegistryRunner(reg, rc), cfg)
}

// ServeRunnerConfig tunes how runners map requests onto engine runs.
type ServeRunnerConfig = serve.RunnerConfig

// Stage is one named, timed step of a query run (e.g. "matrix",
// "training"), as recorded in job snapshots.
type Stage = obs.Stage

// Trace collects a hierarchical span tree for one query run; attach it to
// a context with WithTrace and pass that to Engine.RunContext.
type Trace = obs.Trace

// TraceSummary is a completed trace's immutable span tree, as carried by
// job snapshots, explain reports and slow-query captures.
type TraceSummary = obs.TraceSummary

// SpanNode is one node of a TraceSummary: name, wall-clock bounds, and
// children.
type SpanNode = obs.SpanNode

// ExplainReport is the per-query execution report projected from a run's
// Result and trace: TODAM reduction, SPQ count, cache hits, model
// convergence, in-sample fit, and the stage breakdown.
type ExplainReport = core.ExplainReport

// NewTrace creates an empty trace for one query run.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace attaches a trace to ctx so spans started below it are
// recorded. One trace records one request, on one goroutine: create a
// fresh trace per run and take its Summary after the run returns.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return obs.WithTrace(ctx, t)
}

// Explain projects an ExplainReport from a run's Result and its trace's
// summary; either may be nil (see core.Explain).
func Explain(res *Result, sum *TraceSummary) *ExplainReport { return core.Explain(res, sum) }

// WriteMetrics renders the process-wide metrics registry — engine stage
// latencies, SPQ and relaxation counters, serving-layer counters — in
// Prometheus text exposition format.
func WriteMetrics(w io.Writer) error {
	return obs.WritePrometheus(w)
}
