package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/capture"
	"accessquery/internal/obs/olog"
	"accessquery/internal/obs/slo"
)

// RunFunc executes one validated, canonical request against the engine.
// The ctx carries the per-job timeout and manager shutdown; implementations
// should pass it to core.Engine.RunContext so cancelled jobs stop mid-loop.
type RunFunc func(ctx context.Context, req Request) (*core.Result, error)

// Config sizes the serving layer. The zero value of any field selects the
// default noted on it.
type Config struct {
	// Workers is the number of goroutines executing engine runs; default 2.
	Workers int
	// QueueDepth bounds the admission queue of distinct pending queries
	// (deduplicated followers don't consume slots); default 32. When the
	// queue is full, Submit fails fast with ErrQueueFull.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries; default 64.
	// Negative disables caching.
	CacheSize int
	// CacheTTL expires cached results; default 10m. Negative means no
	// expiry.
	CacheTTL time.Duration
	// JobTimeout bounds one engine run; default 120s. A request's
	// deadline_ms can only tighten it.
	JobTimeout time.Duration
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive engine failures; while open, submissions are answered
	// from stale cache entries when possible and rejected with
	// ErrBreakerOpen otherwise. Default 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before it
	// goes half-open and lets a single probe query through; default 15s.
	BreakerCooldown time.Duration
	// JobRetention keeps finished jobs pollable; default 10m. At most
	// maxFinishedJobs are kept whatever the retention.
	JobRetention time.Duration
	// Tenants is how many city tenants share this manager. It sizes the
	// async fair-share shed: each tenant's async submissions are shed once
	// that tenant holds its fair fraction of the shed threshold, so one
	// city's batch traffic cannot starve the others' queue headroom.
	// Default 1 (the single-tenant behavior).
	Tenants int
	// EpochOf is the manager's one city resolver, when the process runs a
	// tenant registry: it maps a request's city (blank meaning the default
	// tenant) to the tenant's canonical name and current engine epoch, and
	// reports false for a city no tenant serves. Submit resolves the city
	// once, before the fingerprint is taken, so every spelling of a city
	// shares one tenant record and one cache entry, and an unknown city is
	// refused with ErrUnknownCity before it leaves any state behind. A
	// query is keyed by its fingerprint plus the epoch: a cache entry
	// answers it only if the current epoch computed it, and it joins only a
	// flight admitted on the same epoch, so after a scenario change, revert
	// or swap the same fingerprint runs on the new engine. An older epoch's
	// entry is served only as the open breaker's stale fallback, flagged
	// epoch_stale. Nil means the manager serves one tenant, whatever the
	// request's city, and never compares epochs.
	EpochOf func(city string) (name string, epoch uint64, ok bool)
	// SlowQueryThreshold gates the structured slow-query log: runs at or
	// above it are logged with their stage breakdown. Zero disables it.
	// Every line is written: a line needs a run of at least the threshold
	// on one of Workers workers, so the pool itself caps the log at about
	// Workers/threshold lines per second.
	SlowQueryThreshold time.Duration
	// Logger receives the manager's structured log lines (currently the
	// slow-query log); default olog.Default.
	Logger *slog.Logger
	// Accountant, when non-nil, bills every engine run's wall, queue and
	// stage time (and every cache hit) to the city that incurred it. Nil
	// disables cost accounting at zero per-query overhead.
	Accountant *account.Accountant
	// SLO, when non-nil, folds every run outcome into the per-tenant
	// multi-window burn-rate engine. Nil disables SLO evaluation at zero
	// per-query overhead.
	SLO *slo.Engine
	// BurnTripThreshold, when positive (and SLO is set), trips a tenant's
	// circuit breaker whenever its fast burn rate (5m AND 1h windows)
	// reaches the threshold — the breaker's stale-serving and half-open
	// probing then pace recovery exactly as for consecutive failures.
	// The SRE convention for a 30-day budget's page-worthy fast burn is
	// 14.4. Zero disables burn tripping.
	BurnTripThreshold float64
	// Captures, when non-nil, receives an automatic capture (span tree,
	// goroutine dump) whenever a run crosses SlowQueryThreshold or
	// exhausts its deadline. Nil disables capture.
	Captures *capture.Store
	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 10 * time.Minute
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 10 * time.Minute
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Logger == nil {
		c.Logger = olog.Default
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull means admission control rejected the query; retry later
	// (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrShutdown means the manager no longer accepts queries (HTTP 503).
	ErrShutdown = errors.New("serve: shutting down")
	// ErrUnknownJob means the polled job ID does not exist or has been
	// garbage-collected past its retention window (HTTP 404).
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrBreakerOpen means the circuit breaker is open after consecutive
	// engine failures and no stale cache entry could answer the query;
	// retry after the cooldown (HTTP 503).
	ErrBreakerOpen = errors.New("serve: circuit breaker open")
	// ErrCancelled is the terminal error of a job cancelled via Cancel
	// (HTTP 409 on wait, "cancelled" state on poll).
	ErrCancelled = errors.New("serve: job cancelled")
	// ErrNotCancellable means Cancel targeted a job already in a terminal
	// state (HTTP 409).
	ErrNotCancellable = errors.New("serve: job already finished")
	// ErrUnknownCity means the request named a city no tenant serves
	// (HTTP 404): Submit returns it when Config.EpochOf does not know the
	// city, and the HTTP layer when a path or ?city= names one.
	ErrUnknownCity = errors.New("serve: unknown city")
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ValidState reports whether s names a job lifecycle state (for the
// list-jobs filter).
func ValidState(s State) bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Job tracks one submitted query. Fields are written only by the manager;
// readers take snapshots via Snapshot or wait on Done.
type Job struct {
	ID          string
	Fingerprint string
	City        string // canonical tenant name the request routed to
	// flightKey names the flight the job is attached to in
	// Manager.flights; empty for cache hits.
	flightKey string
	tenant    *tenantState // the record the job is counted under

	mu         sync.Mutex
	state      State
	ans        answer // the run's answer once done; a failed job keeps only its run's trace
	err        error
	cacheHit   bool
	dedup      bool
	stale      bool          // answered from an expired cache entry (breaker open)
	staleFor   time.Duration // the stale answer's age since it was stored
	epochStale bool          // cached answer predates the city's current engine epoch
	created    time.Time
	// retired is set once the job is in the manager's finished queue;
	// guarded by Manager.mu, not mu.
	retired bool

	done chan struct{}
}

// Snapshot is a point-in-time view of a job, shaped for JSON status
// responses. Stages holds the per-stage latency breakdown of the run that
// answered the job — its trace's leaves: the queue wait and the engine's
// Table II stages, in execution order; it is empty for cache hits, which
// ran nothing.
// Trace is the full span tree of the run that answered the job; a cache
// hit carries the trace of the run that produced the cached result, and a
// failed job its own run's. Body memoises the result's wire encoding; it is
// non-nil exactly when Result is.
type Snapshot struct {
	ID           string            `json:"id"`
	Fingerprint  string            `json:"fingerprint"`
	City         string            `json:"city,omitempty"`
	Epoch        uint64            `json:"epoch,omitempty"`
	EpochStale   bool              `json:"epoch_stale,omitempty"`
	State        State             `json:"state"`
	CacheHit     bool              `json:"cache_hit"`
	Deduplicated bool              `json:"deduplicated"`
	Stale        bool              `json:"stale,omitempty"`
	StaleFor     time.Duration     `json:"-"`
	Created      time.Time         `json:"created"`
	Error        string            `json:"error,omitempty"`
	Stages       []obs.Stage       `json:"stages,omitempty"`
	Trace        *obs.TraceSummary `json:"-"`
	Result       *core.Result      `json:"-"`
	Body         *EncodedBody      `json:"-"`
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns the job's current state, result, and error.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:           j.ID,
		Fingerprint:  j.Fingerprint,
		City:         j.City,
		EpochStale:   j.epochStale,
		State:        j.state,
		CacheHit:     j.cacheHit,
		Deduplicated: j.dedup,
		Stale:        j.stale,
		StaleFor:     j.staleFor,
		Created:      j.created,
		Trace:        j.ans.trace,
		Result:       j.ans.res,
		Body:         j.ans.body,
	}
	if res := j.ans.res; res != nil {
		// The epoch (and, for cache hits, the producing run's city) comes
		// from the result the runner stamped, so a cached answer reports the
		// epoch that computed it — not the one currently serving.
		s.Epoch = res.Epoch
		if res.City != "" {
			s.City = res.City
		}
	}
	if !j.cacheHit {
		s.Stages = j.ans.trace.Stages()
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// complete moves the job to a terminal state: done with ans when err is
// nil, failed or cancelled otherwise (ans then carries at most the failed
// run's trace). It is idempotent: Cancel and a finishing flight can race to
// complete the same job, and whichever gets there first wins.
func (j *Job) complete(ans answer, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	switch {
	case errors.Is(err, ErrCancelled):
		j.state = StateCancelled
		j.err = err
	case err != nil:
		j.state = StateFailed
		j.err = err
	default:
		j.state = StateDone
	}
	j.ans = ans
	j.mu.Unlock()
	close(j.done)
}

// Result returns the job's terminal result and error. Before the job
// finishes both are nil; after Done it returns exactly what the run (or
// cancellation) produced, errors keeping their sentinel identity.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ans.res, j.err
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	if !j.state.terminal() {
		j.state = s
	}
	j.mu.Unlock()
}

// flight is one in-progress engine run; all jobs sharing its fingerprint
// attach to it and complete together (singleflight).
type flight struct {
	key      string // fp plus the admission epoch; see flightKey
	fp       string
	req      Request
	tenant   *tenantState
	enqueued time.Time // admission time, for the queue-wait histogram
	jobs     []*Job    // guarded by Manager.mu
	started  bool      // guarded by Manager.mu: a worker has begun the run
	// cancel aborts the run's context; set by the worker once running,
	// guarded by Manager.mu.
	cancel context.CancelFunc
	// cancelled means every attached job was cancelled: a worker that
	// dequeues this flight skips it, a running one stops caring about the
	// outcome. Guarded by Manager.mu.
	cancelled bool
	// probe marks the breaker's half-open trial run.
	probe bool
}

// tenantState is one city's record: its circuit breaker, its share of the
// queue, its event counts — the one count store that Stats sums and
// TenantStats reads — and its handles on every per-city outlet, resolved
// once when the record is created. Jobs, flights and outcomes carry the
// record itself, so a served query reaches its city's counts, series, bill
// and SLO window without a lookup by name. The handles are fixed at
// creation; every other field is guarded by Manager.mu.
type tenantState struct {
	name string
	m    cityMetrics     // the city's labeled aq_serve_* series
	cost *account.Tenant // nil when cost accounting is off
	slo  *slo.Tenant     // nil when SLO evaluation is off

	// Breaker: open while openUntil is non-zero. Before the cooldown
	// passes every submission for this city is served stale or rejected;
	// after it, the breaker is half-open and admits one probe flight
	// (probing) whose outcome closes or re-trips it.
	consecFails int
	openUntil   time.Time
	probing     bool
	// queued counts this city's distinct flights currently in the
	// admission queue, for the async fair-share shed.
	queued int
	// Event counts since startup.
	submitted, cacheHits, dedups, rejected, shedAsync int64
	completed, failed, cancelled, staleServed, trips  int64
}

// resolve maps a request's city to its tenant's canonical name and current
// epoch through Config.EpochOf. A manager without a resolver keeps a single
// record, under the name its series and reports carry, on epoch 0.
func (m *Manager) resolve(city string) (name string, epoch uint64, err error) {
	if m.cfg.EpochOf == nil {
		return "default", 0, nil
	}
	name, epoch, ok := m.cfg.EpochOf(city)
	if !ok {
		return "", 0, fmt.Errorf("%w: %q", ErrUnknownCity, city)
	}
	return name, epoch, nil
}

// tenantLocked returns the record of a resolved city, creating it with its
// series and outlet handles on first use. Callers hold m.mu.
func (m *Manager) tenantLocked(name string) *tenantState {
	ts, ok := m.tenants[name]
	if !ok {
		ts = &tenantState{
			name: name,
			m:    newCityMetrics(name),
			cost: m.cfg.Accountant.Ensure(name),
			slo:  m.cfg.SLO.Ensure(name),
		}
		m.tenants[name] = ts
	}
	return ts
}

// TenantStats is the per-city view of Stats: breaker state, queue share,
// and the tenant-scoped counters.
type TenantStats struct {
	City         string `json:"city"`
	Queued       int    `json:"queued"`
	BreakerOpen  bool   `json:"breaker_open"`
	ConsecFails  int    `json:"consecutive_failures,omitempty"`
	BreakerTrips int64  `json:"breaker_trips"`
	StaleServed  int64  `json:"stale_served"`
	ShedAsync    int64  `json:"shed_async"`
	Completed    int64  `json:"completed"`
	Failed       int64  `json:"failed"`
}

// Stats counts serving-layer events since startup.
type Stats struct {
	Submitted    int64 `json:"submitted"`
	CacheHits    int64 `json:"cache_hits"`
	Deduplicated int64 `json:"deduplicated"`
	Rejected     int64 `json:"rejected"`
	ShedAsync    int64 `json:"shed_async"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Cancelled    int64 `json:"cancelled"`
	StaleServed  int64 `json:"stale_served"`
	BreakerOpen  bool  `json:"breaker_open"`
	QueueLen     int   `json:"queue_len"`
}

// Manager owns the worker pool, result cache, singleflight table, and job
// registry. Create with NewManager; stop with Shutdown.
type Manager struct {
	cfg   Config
	run   RunFunc
	cache *resultCache

	mu      sync.Mutex
	closed  bool
	flights map[string]*flight
	jobs    map[string]*Job
	nextID  uint64
	// finished lists the terminal jobs still in jobs, oldest first; see
	// retireLocked.
	finished []finishedJob

	// One record per city (breaker, queue share, counts, outlet handles),
	// keyed by the canonical name resolve returns and guarded by mu. It is
	// written only when a city's first submission creates its record. One
	// city's failing engine trips only its own breaker; the other tenants
	// keep running.
	tenants map[string]*tenantState

	queue    chan *flight
	wg       sync.WaitGroup
	rootCtx  context.Context
	rootStop context.CancelFunc

	avgRunNanos atomic.Int64 // EWMA of engine-run durations, for Retry-After
}

// NewManager starts cfg.Workers workers executing run.
func NewManager(run RunFunc, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		run:      run,
		cache:    newResultCache(cfg.CacheSize, cfg.CacheTTL, cfg.now),
		flights:  make(map[string]*flight),
		tenants:  make(map[string]*tenantState),
		jobs:     make(map[string]*Job),
		queue:    make(chan *flight, cfg.QueueDepth),
		rootCtx:  ctx,
		rootStop: stop,
	}
	mWorkers.Add(float64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit admits a query on the synchronous tier and returns immediately
// with a pollable job. The fast paths: a fresh cached result completes the
// job synchronously, and a fingerprint already in flight attaches to that
// run without consuming a queue slot. Otherwise the query takes a queue
// slot or is rejected with ErrQueueFull; while the circuit breaker is open
// it is answered from a stale cache entry or rejected with ErrBreakerOpen.
func (m *Manager) Submit(req Request) (*Job, error) { return m.submit(req, false) }

// SubmitAsync is Submit on the async (fire-and-poll) tier. The tiers share
// every path except load shedding: async submissions are rejected once the
// queue is three-quarters full, keeping the remaining headroom for
// synchronous callers who have a client blocked on the answer.
func (m *Manager) SubmitAsync(req Request) (*Job, error) { return m.submit(req, true) }

func (m *Manager) submit(req Request, async bool) (*Job, error) {
	req, err := req.Normalize()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	name, epoch, err := m.resolve(req.City)
	if err != nil {
		return nil, err
	}
	if m.cfg.EpochOf != nil {
		req.City = name
	}
	fp := req.Fingerprint()
	var hit outcome
	m.mu.Lock()
	job, err := m.admitLocked(req, name, fp, epoch, async, m.cfg.now(), &hit)
	m.mu.Unlock()
	if hit.jobs != nil {
		m.observe(&hit)
	}
	return job, err
}

// admitLocked decides one submission of the resolved tenant on its
// current epoch: a dedup onto a running flight, a new flight, a rejection,
// or a cache answer, whose outcome it leaves in hit for the caller to
// observe once m.mu is released. Callers hold m.mu.
func (m *Manager) admitLocked(req Request, tenant, fp string, epoch uint64, async bool, now time.Time, hit *outcome) (*Job, error) {
	if m.closed {
		return nil, ErrShutdown
	}
	m.pruneLocked(now)
	ts := m.tenantLocked(tenant)

	if ans, ok := m.cache.get(fp, epoch); ok {
		return m.answerCachedLocked(hit, ts, req.City, fp, now, ans, false, 0), nil
	}
	mCacheMisses.Inc()
	key := flightKey(fp, epoch)
	if fl, ok := m.flights[key]; ok {
		job := m.newJobLocked(ts, req.City, fp, now)
		job.flightKey = key
		job.dedup = true
		if fl.started {
			// The worker already set the attached jobs running; a late
			// follower must not report "queued" for an in-progress run.
			job.state = StateRunning
		}
		fl.jobs = append(fl.jobs, job)
		m.jobs[job.ID] = job
		ts.dedups++
		mDedups.Inc()
		return job, nil
	}
	probe := false
	if open, canProbe := m.breakerStateLocked(ts, now); open {
		// Degraded read path: an expired cache entry with honest staleness
		// metadata beats bouncing the client while the engine recovers.
		if ans, age, ok := m.cache.getStale(fp); ok {
			return m.answerCachedLocked(hit, ts, req.City, fp, now, ans, true, age), nil
		}
		if !canProbe {
			ts.rejected++
			mBreakerRejected.Inc()
			return nil, ErrBreakerOpen
		}
		// Half-open: let exactly this query through as the probe.
		probe = true
	}
	// Tiered shedding: reject async work while the queue still has sync
	// headroom, and shed one tenant's async flood at its fair share of
	// that threshold so it cannot crowd out the other cities. A breaker
	// probe bypasses the tier check — it is the one query that can close
	// the breaker.
	shedAt := 3 * cap(m.queue) / 4
	if shedAt < 1 {
		shedAt = 1 // a tiny queue still admits async work until it is full
	}
	fairShare := shedAt / m.cfg.Tenants
	if fairShare < 1 {
		fairShare = 1
	}
	if async && !probe && (len(m.queue) >= shedAt || ts.queued >= fairShare) {
		ts.rejected++
		ts.shedAsync++
		mRejected.Inc()
		ts.m.shedAsync.Inc()
		return nil, ErrQueueFull
	}
	// Admission decision before consuming a job ID or counting the
	// submission, so rejected queries are counted once (rejected only) and
	// job IDs stay gapless.
	fl := &flight{key: key, fp: fp, req: req, tenant: ts, enqueued: now, probe: probe}
	select {
	case m.queue <- fl:
		ts.queued++
		ts.m.queued.Inc()
	default:
		ts.rejected++
		mRejected.Inc()
		return nil, ErrQueueFull
	}
	if probe {
		ts.probing = true
	}
	// A worker may already have dequeued fl, but it blocks on m.mu before
	// touching fl.jobs, so attaching here is safe.
	job := m.newJobLocked(ts, req.City, fp, now)
	job.flightKey = key
	fl.jobs = []*Job{job}
	m.flights[key] = fl
	m.jobs[job.ID] = job
	return job, nil
}

// answerCachedLocked admits a submission the result cache answers: a
// fresh hit, or — while the tenant's breaker is open — an expired entry
// served stale with its age. It fills in the hit's outcome, which the
// caller observes once m.mu is released. The cached entry carries the
// producing run's trace, so the job still answers trace and explain
// requests. Callers hold m.mu.
func (m *Manager) answerCachedLocked(hit *outcome, ts *tenantState, city, fp string, now time.Time, ans answer, stale bool, age time.Duration) *Job {
	job := m.newJobLocked(ts, city, fp, now)
	job.cacheHit = true
	job.stale = stale
	job.staleFor = age
	job.epochStale = m.epochStale(ans.res)
	m.jobs[job.ID] = job
	if job.epochStale {
		mEpochStale.Inc()
	}
	m.retireLocked(job, now)
	*hit = outcome{kind: hitFresh, tenant: ts, fp: fp, jobs: []*Job{job}, ans: ans}
	if stale {
		hit.kind = hitStale
	}
	return job
}

// flightKey keys the flight table: a run admitted on one epoch never
// answers a submission admitted on another.
func flightKey(fp string, epoch uint64) string {
	if epoch == 0 {
		return fp
	}
	return fp + "@" + strconv.FormatUint(epoch, 10)
}

// epochStale reports whether a cached result was computed by an engine
// generation older than the producing city's current one (EpochOf). A
// manager without a registry (nil EpochOf) never reports epoch staleness.
func (m *Manager) epochStale(res *core.Result) bool {
	if m.cfg.EpochOf == nil || res == nil || res.City == "" || res.Epoch == 0 {
		return false
	}
	_, cur, ok := m.cfg.EpochOf(res.City)
	return ok && cur != res.Epoch
}

// breakerStateLocked reports whether a tenant's breaker currently refuses
// new engine runs and, if so, whether the cooldown has passed so one
// half-open probe may go through. Callers hold m.mu.
func (m *Manager) breakerStateLocked(ts *tenantState, now time.Time) (open, canProbe bool) {
	if m.cfg.BreakerThreshold < 0 || ts.openUntil.IsZero() {
		return false, false
	}
	if ts.probing || now.Before(ts.openUntil) {
		return true, false
	}
	return true, true
}

// breakerLocked feeds one finished run into its tenant's circuit breaker.
// A success closes it; a failure counts toward tripping it (a failed probe
// re-trips it at once); a neutral outcome leaves it alone, so a cancelled
// probe leaves it half-open. With burn tripping armed, a fast SLO burn at
// or over the threshold trips it too, without waiting for consecutive
// hard failures. Callers hold m.mu and have recorded the run in the SLO.
func (m *Manager) breakerLocked(o *outcome, now time.Time) {
	if m.cfg.BreakerThreshold < 0 {
		return
	}
	ts := o.tenant
	if o.probe {
		ts.probing = false
	}
	switch o.class {
	case classOK:
		ts.consecFails = 0
		if !ts.openUntil.IsZero() {
			ts.openUntil = time.Time{}
			ts.m.breakerOpen.Set(0)
		}
	case classFailed:
		ts.consecFails++
		if o.probe || (ts.consecFails >= m.cfg.BreakerThreshold && ts.openUntil.IsZero()) {
			m.tripLocked(ts, now)
		}
	}
	if ts.slo == nil || m.cfg.BurnTripThreshold <= 0 || !ts.openUntil.IsZero() || ts.probing {
		return
	}
	if fb := ts.slo.FastBurn(); fb >= m.cfg.BurnTripThreshold {
		m.tripLocked(ts, now)
		ts.m.burnTrips.Inc()
		m.cfg.Logger.Warn("slo burn trip",
			"city", ts.name,
			"fast_burn", fb,
			"threshold", m.cfg.BurnTripThreshold,
			"cooldown_seconds", m.cfg.BreakerCooldown.Seconds())
	}
}

// tripLocked opens a tenant's breaker for the cooldown. Callers hold m.mu.
func (m *Manager) tripLocked(ts *tenantState, now time.Time) {
	ts.openUntil = now.Add(m.cfg.BreakerCooldown)
	ts.trips++
	ts.m.breakerTrips.Inc()
	ts.m.breakerOpen.Set(1)
}

// newJobLocked allocates the next job ID and counts the submission. Callers
// hold m.mu and must only call it once admission has succeeded.
func (m *Manager) newJobLocked(ts *tenantState, city, fp string, now time.Time) *Job {
	ts.submitted++
	ts.m.submitted.Inc()
	m.nextID++
	return &Job{
		ID:          fmt.Sprintf("j%08d", m.nextID),
		Fingerprint: fp,
		City:        city,
		tenant:      ts,
		state:       StateQueued,
		created:     now,
		done:        make(chan struct{}),
	}
}

// Get returns a job by ID. Like Submit it prunes expired jobs first, so
// retention is enforced even on a server that has gone idle between
// submissions.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked(m.cfg.now())
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return job, nil
}

// Wait blocks until the job finishes or ctx is cancelled. It is the bridge
// that keeps the synchronous HTTP path a thin wrapper over the async one.
// On failure it returns the job's terminal error itself — not a stringified
// copy — so sentinel identity (ErrShutdown, ErrCancelled, context errors)
// survives for the HTTP layer's status-code mapping.
func (m *Manager) Wait(ctx context.Context, job *Job) (*core.Result, error) {
	select {
	case <-job.Done():
		return job.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel moves a queued or running job to the cancelled state. The last
// job on a flight takes the flight with it: a queued flight is skipped by
// the worker, a running one has its context cancelled so the engine stops
// mid-loop. Returns ErrUnknownJob for unknown IDs and ErrNotCancellable
// for jobs already terminal or answered from the cache.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	job.mu.Lock()
	terminal := job.state.terminal() || job.cacheHit
	job.mu.Unlock()
	if terminal {
		return ErrNotCancellable
	}
	if fl, ok := m.flights[job.flightKey]; ok {
		kept := fl.jobs[:0]
		for _, j := range fl.jobs {
			if j != job {
				kept = append(kept, j)
			}
		}
		fl.jobs = kept
		if len(fl.jobs) == 0 {
			fl.cancelled = true
			if fl.cancel != nil {
				fl.cancel()
			}
			// Drop the flight from the table so a new identical submission
			// starts fresh instead of attaching to a dying run.
			delete(m.flights, fl.key)
		}
	}
	// complete is idempotent: a finished flight completes its jobs outside
	// m.mu, so if it got to this one first the job kept its real outcome
	// and was never cancelled.
	job.complete(answer{}, ErrCancelled)
	if s := job.Snapshot(); s.State != StateCancelled {
		return ErrNotCancellable
	}
	m.retireLocked(job, m.cfg.now())
	job.tenant.cancelled++
	mCancelled.Inc()
	return nil
}

// List returns snapshots of known jobs in submission (ID) order: jobs with
// IDs lexically after cursor, filtered by state when state is non-empty,
// at most limit entries (default and cap 500). The second return is the
// cursor for the next page, empty when the listing is complete.
func (m *Manager) List(state State, limit int, cursor string) ([]Snapshot, string) {
	if limit <= 0 || limit > 500 {
		limit = 500
	}
	m.mu.Lock()
	m.pruneLocked(m.cfg.now())
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()

	// Job IDs are zero-padded ("j%08d"), so lexical order is submission
	// order and any ID works as a resumption cursor.
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]Snapshot, 0, min(limit, len(jobs)))
	var next string
	for _, j := range jobs {
		if j.ID <= cursor {
			continue
		}
		s := j.Snapshot()
		if state != "" && s.State != state {
			continue
		}
		if len(out) == limit {
			// One more match exists beyond the page: resume after the last
			// included job.
			next = out[len(out)-1].ID
			break
		}
		out = append(out, s)
	}
	return out, next
}

// RetryAfter estimates, from the queue backlog and a moving average of
// engine-run time, how long a rejected client should back off. Always at
// least one second.
func (m *Manager) RetryAfter() time.Duration {
	avg := time.Duration(m.avgRunNanos.Load())
	if avg <= 0 {
		avg = time.Second
	}
	backlog := len(m.queue) + 1
	d := avg * time.Duration(backlog) / time.Duration(m.cfg.Workers)
	if d < time.Second {
		d = time.Second
	}
	if d > m.cfg.JobTimeout {
		d = m.cfg.JobTimeout
	}
	return d
}

// Stats returns the event counts summed over every tenant, whether any
// tenant's breaker is open, and the current queue length.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.now()
	st := Stats{QueueLen: len(m.queue)}
	for _, ts := range m.tenants {
		if open, _ := m.breakerStateLocked(ts, now); open {
			st.BreakerOpen = true
		}
		st.Submitted += ts.submitted
		st.CacheHits += ts.cacheHits
		st.Deduplicated += ts.dedups
		st.Rejected += ts.rejected
		st.ShedAsync += ts.shedAsync
		st.Completed += ts.completed
		st.Failed += ts.failed
		st.Cancelled += ts.cancelled
		st.StaleServed += ts.staleServed
	}
	return st
}

// TenantStats returns the per-city admission view — breaker state, queue
// share, and tenant-scoped counters — sorted by city name. Cities appear
// once they have submitted at least one query.
func (m *Manager) TenantStats() []TenantStats {
	m.mu.Lock()
	now := m.cfg.now()
	out := make([]TenantStats, 0, len(m.tenants))
	for _, ts := range m.tenants {
		open, _ := m.breakerStateLocked(ts, now)
		out = append(out, TenantStats{
			City:         ts.name,
			Queued:       ts.queued,
			BreakerOpen:  open,
			ConsecFails:  ts.consecFails,
			BreakerTrips: ts.trips,
			StaleServed:  ts.staleServed,
			ShedAsync:    ts.shedAsync,
			Completed:    ts.completed,
			Failed:       ts.failed,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].City < out[k].City })
	return out
}

// Shutdown stops admission immediately, then waits for queued and running
// jobs to drain. If ctx expires first, running jobs are cancelled through
// their contexts and Shutdown returns ctx.Err().
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	mWorkers.Add(-float64(m.cfg.Workers))

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.rootStop() // cancel in-flight engine runs
		<-drained
		return ctx.Err()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for fl := range m.queue {
		m.runFlight(fl)
	}
}

// runFlight executes one deduplicated engine run and completes every job
// attached to it.
func (m *Manager) runFlight(fl *flight) {
	m.mu.Lock()
	ts := fl.tenant
	ts.queued--
	ts.m.queued.Dec()
	if fl.cancelled {
		// Every attached job was cancelled while this flight sat in the
		// queue; Cancel already removed it from the flight table.
		m.mu.Unlock()
		return
	}
	// The run context is created here, under the lock, so Cancel can abort
	// it: the effective deadline is the tightest of the job timeout, the
	// server default, and the request's own deadline_ms.
	ctx, cancel := context.WithTimeout(m.rootCtx, m.effectiveTimeout(fl.req))
	fl.cancel = cancel
	fl.started = true
	for _, j := range fl.jobs {
		j.setState(StateRunning)
	}
	m.mu.Unlock()
	defer cancel()
	mWorkersBusy.Inc()
	defer mWorkersBusy.Dec()

	start := m.cfg.now()
	wait := start.Sub(fl.enqueued)
	mQueueWait.ObserveDuration(wait)
	// The trace rides the run context so the engine's stage spans land in
	// it; every job attached to this flight shares the breakdown.
	tr := obs.NewTrace()
	res, err := m.safeRun(ctx, fl.req, tr, wait)
	elapsed := m.cfg.now().Sub(start)
	m.noteRunTime(elapsed)
	mRunSeconds.ObserveDuration(elapsed)
	// A failed run leaves only its trace behind.
	ans := answer{trace: tr.Summary()}

	now := m.cfg.now()
	m.mu.Lock()
	// Remove the flight before completing its jobs: once the lock drops,
	// a same-fingerprint Submit starts a fresh flight (or hits the cache)
	// instead of attaching to a finished one. Cancel may already have
	// removed it (and even replaced it with a fresh flight) — only delete
	// our own entry.
	if m.flights[fl.key] == fl {
		delete(m.flights, fl.key)
	}
	// A flight whose last job was cancelled ends cancelled, whatever the
	// engine returned: the outcome is classified from this final error.
	if fl.cancelled && err == nil && ctx.Err() != nil {
		err = fmt.Errorf("%w: run aborted", ErrCancelled)
	}
	if err == nil {
		ans.res, ans.body = res, new(EncodedBody)
		if res.Degraded == nil {
			// Degraded answers are honest but not canonical: caching one
			// would keep serving reduced fidelity after the pressure has
			// passed.
			m.cache.put(fl.fp, ans)
		}
	}
	jobs := fl.jobs
	fl.jobs = nil
	// Queued as finished here, under the lock, a moment before they are
	// completed: nothing can drop them from the queue that soon.
	for _, j := range jobs {
		m.retireLocked(j, now)
	}
	m.mu.Unlock()

	o := outcome{
		kind: ranEngine, tenant: fl.tenant, fp: fl.fp, jobs: jobs, ans: ans, err: err, class: classify(err),
		probe: fl.probe, wait: wait, elapsed: elapsed, stages: ans.trace.Stages(),
		deadline: errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded),
	}
	if res != nil {
		o.spqs, o.bankDrained = res.Timing.SPQs, res.Timing.BankDrained
	}
	m.observe(&o)
}

// effectiveTimeout computes one run's deadline: JobTimeout, tightened by
// the request's own deadline_ms when set.
func (m *Manager) effectiveTimeout(req Request) time.Duration {
	d := m.cfg.JobTimeout
	if rd := time.Duration(req.DeadlineMS) * time.Millisecond; rd > 0 && rd < d {
		d = rd
	}
	return d
}

// outcomeKind says how a served query was answered.
type outcomeKind uint8

const (
	hitFresh  outcomeKind = iota + 1 // a fresh result-cache entry
	hitStale                         // an expired entry, served while the breaker is open
	ranEngine                        // an engine run (one flight, every job attached to it)
)

// outcomeClass is what an outcome says about the tenant's health. A run is
// classified once, from its final error. Hits, stale ones too, are
// classOK: stale serving keeps the tenant answering, and the open breaker
// already shows in the burn rate through the failures that tripped it.
type outcomeClass uint8

const (
	classOK      outcomeClass = iota
	classFailed               // a real engine failure: burns the SLO, counts toward the breaker
	classNeutral              // cancelled or shut down: says nothing about engine health
)

func classify(err error) outcomeClass {
	switch {
	case err == nil:
		return classOK
	case errors.Is(err, ErrCancelled), errors.Is(err, context.Canceled), errors.Is(err, ErrShutdown):
		return classNeutral
	}
	return classFailed
}

// outcome is the one record of a served query, built once its error is
// final: by answerCachedLocked for a cache answer and by runFlight for an
// engine run. observe feeds every outlet from it.
type outcome struct {
	kind     outcomeKind
	tenant   *tenantState
	fp       string
	jobs     []*Job // the jobs it answers
	ans      answer // result and body on success; for a run, always its trace
	err      error
	class    outcomeClass
	probe    bool // the run was the breaker's half-open probe
	deadline bool // the run exhausted its deadline, even if it still answered degraded

	wait, elapsed     time.Duration
	stages            []obs.Stage
	spqs, bankDrained int64
}

// observe feeds one outcome to every outlet, then completes its jobs:
// the cost bill and the SLO; under m.mu the event counts and, for an
// engine run, the breaker (which reads the SLO just recorded); then, for a
// run, a capture and the slow-query log. Callers do not hold m.mu.
func (m *Manager) observe(o *outcome) {
	// Jobs complete last on every path, after their counts and capture.
	defer func() {
		for _, j := range o.jobs {
			j.complete(o.ans, o.err)
		}
	}()
	run := o.kind == ranEngine
	ts := o.tenant
	ts.cost.Bill(account.Bill{
		CacheHit: !run, Wall: o.elapsed, QueueWait: o.wait, Stages: o.stages,
		SPQs: o.spqs, BankDrained: o.bankDrained, Failed: o.class == classFailed,
	})
	if o.class != classNeutral {
		ts.slo.Record(o.elapsed, o.class == classFailed)
	}

	m.mu.Lock()
	switch o.kind {
	case hitFresh:
		ts.cacheHits++
		ts.m.cacheHits.Inc()
	case hitStale:
		ts.staleServed++
		ts.m.staleServed.Inc()
	case ranEngine:
		n := int64(len(o.jobs))
		if o.err != nil {
			ts.failed += n
			ts.m.failed.Add(n)
		} else {
			ts.completed += n
			ts.m.completed.Add(n)
		}
		m.breakerLocked(o, m.cfg.now())
	}
	m.mu.Unlock()
	if !run {
		return
	}

	slow := m.cfg.SlowQueryThreshold > 0 && o.elapsed >= m.cfg.SlowQueryThreshold
	var captureID string
	if m.cfg.Captures != nil && (o.deadline || slow) {
		reason := capture.ReasonSlowQuery
		if o.deadline {
			reason = capture.ReasonDeadline
		}
		ids := make([]string, len(o.jobs))
		for i, j := range o.jobs {
			ids[i] = j.ID
		}
		captureID = m.cfg.Captures.Trigger(capture.Info{
			JobIDs: ids, City: ts.name, Fingerprint: o.fp, Reason: reason,
			Threshold: m.cfg.SlowQueryThreshold, Elapsed: o.elapsed,
			Err: o.err, Trace: o.ans.trace,
		})
	}
	if !slow {
		return
	}
	// The slow-query line: trace ID, fingerprint, total time, the capture
	// (if any) and the per-stage breakdown.
	fields := []any{
		"trace_id", o.ans.trace.TraceID,
		"fingerprint", o.fp,
		"seconds", o.elapsed.Seconds(),
		"threshold_seconds", m.cfg.SlowQueryThreshold.Seconds(),
		"city", ts.name,
	}
	if captureID != "" {
		fields = append(fields, "capture_id", captureID)
	}
	for _, st := range o.stages {
		fields = append(fields, "stage_"+st.Name+"_seconds", st.Seconds)
	}
	if o.err != nil {
		fields = append(fields, "error", o.err)
	}
	m.cfg.Logger.Warn("slow query", fields...)
}

// safeRun executes one run under the flight's context and converts a
// panicking query into an error, so one bad query cannot kill the server.
// It roots the trace's span tree: a "job" span owning the queue wait and
// the engine's "query" subtree.
func (m *Manager) safeRun(ctx context.Context, req Request, tr *obs.Trace, wait time.Duration) (res *core.Result, err error) {
	ctx = obs.WithTrace(ctx, tr)
	ctx, sp := obs.Start(ctx, "job", nil)
	obs.RecordSpan(ctx, "queue_wait", wait)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: query panicked: %v", r)
		}
		sp.End()
	}()
	res, err = m.run(ctx, req)
	if err != nil && errors.Is(err, context.Canceled) && m.rootCtx.Err() != nil {
		// Keep the job's terminal error meaningful (and its code stable)
		// when the flight was torn down by shutdown rather than by its own
		// deadline or a user cancel.
		err = fmt.Errorf("%w: engine run cancelled", ErrShutdown)
	}
	if err == nil && ctx.Err() != nil && (res == nil || res.Degraded == nil) {
		// The engine returned a stale full-fidelity success after its
		// deadline; don't cache or report a result computed under
		// cancellation. A degraded result is exempt: answering partially
		// at the deadline is exactly the ladder's contract.
		return nil, ctx.Err()
	}
	return res, err
}

// noteRunTime folds one run duration into the EWMA behind RetryAfter. The
// CAS loop keeps concurrent worker completions from losing updates.
func (m *Manager) noteRunTime(d time.Duration) {
	const alpha = 0.3
	for {
		prev := m.avgRunNanos.Load()
		next := int64(d)
		if prev != 0 {
			next = int64(alpha*float64(d) + (1-alpha)*float64(prev))
		}
		if m.avgRunNanos.CompareAndSwap(prev, next) {
			return
		}
	}
}

// maxFinishedJobs caps how many finished jobs stay pollable, whatever
// JobRetention says: retention alone lets job memory grow with the request
// rate (a cache-hit stream finishes thousands of jobs a second). A constant
// rather than a setting: it only has to outlast the gap between a
// submission and its poll, and 8,192 jobs is seconds of that even at a
// hit-only peak rate and the whole retention window at any engine-bound
// rate.
const maxFinishedJobs = 8192

// finishedJob is one entry of the finish-ordered queue of terminal jobs.
type finishedJob struct {
	id string
	at time.Time
}

// retireLocked appends a job that has reached (or is about to be given) a
// terminal state to the finished queue, once, and drops the oldest finished
// jobs beyond maxFinishedJobs. Callers hold m.mu.
func (m *Manager) retireLocked(j *Job, at time.Time) {
	if j.retired {
		return
	}
	j.retired = true
	m.finished = append(m.finished, finishedJob{id: j.ID, at: at})
	for len(m.finished) > maxFinishedJobs {
		m.dropOldestLocked()
	}
}

func (m *Manager) dropOldestLocked() {
	delete(m.jobs, m.finished[0].id)
	m.finished = m.finished[1:]
}

// pruneLocked drops jobs that finished — done, failed or cancelled — before
// the retention window. The queue is in finish order, so the work is
// proportional to what expires, not to what is retained. Callers hold m.mu.
func (m *Manager) pruneLocked(now time.Time) {
	cutoff := now.Add(-m.cfg.JobRetention)
	for len(m.finished) > 0 && m.finished[0].at.Before(cutoff) {
		m.dropOldestLocked()
	}
}
