// Command aqserver serves dynamic access queries over HTTP against a
// synthetic city. It builds the offline structures once at startup and then
// answers queries through an asynchronous serving layer (internal/serve):
// a bounded worker pool with admission control, an LRU result cache with
// TTL, and in-flight deduplication, so identical concurrent queries cost
// one engine run and overload sheds fast instead of piling up.
//
// The API is versioned under /v1/: apiSurface in api.go is the route
// table, one file per resource holds its handlers, and openapi.yaml at the
// repository root is the contract the tests hold the table to.
//
// Robustness: per-request deadlines (deadline_ms in the body or query
// string) degrade answers instead of failing them, a circuit breaker trips
// after consecutive engine failures and serves stale cache entries while
// open, and -fault-spec enables deterministic fault injection for chaos
// testing.
//
// With -debug-addr set, a second loopback listener serves /metrics,
// /debug/pprof/ and /debug/captures so a loaded server can be profiled
// without redeploying.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/buildinfo"
	"accessquery/internal/fault"
	"accessquery/internal/gtfs"
	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/capture"
	"accessquery/internal/obs/olog"
	"accessquery/internal/obs/slo"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
)

// logger is the process logger: structured JSON lines on stderr, stamped
// with the component. main rebuilds it at the -log-level minimum before
// anything else logs.
var logger = olog.Default.With("component", "aqserver")

// fatal logs a boot failure as the process's last line and exits 1.
func fatal(msg string, err error) {
	logger.Log(context.Background(), olog.LevelFatal, msg, "error", err)
	os.Exit(1)
}

// httpErrorLog routes what net/http logs itself (a handler panic, a
// superfluous WriteHeader, a failed accept) through the process logger,
// so every line aqserver writes is one JSON object.
func httpErrorLog() *log.Logger { return slog.NewLogLogger(logger.Handler(), slog.LevelError) }

type server struct {
	reg      *registry.Registry
	mgr      *serve.Manager
	bank     *bank.Bank // nil when -bank=false
	acct     *account.Accountant
	slo      *slo.Engine    // nil when -slo is off
	sloTrip  float64        // -slo-burn-trip, echoed in /v1/slo
	captures *capture.Store // nil when -captures=0
	snapDir  string         // -snapshot-dir, the /v1 snapshots store
}

// config is aqserver's command line. parseFlags binds each flag straight
// onto the field it sets, so main copies nothing.
type config struct {
	cities, addr, debugAddr                   string
	faultSpec, sloSpec, snapshotDir, logLevel string
	drainTimeout                              time.Duration
	bankOn, version                           bool
	level                                     olog.Level            // parsed -log-level
	tenants                                   []registry.TenantSpec // parsed -cities
	slo                                       *slo.Spec             // parsed -slo; nil when off

	serve    serve.Config
	capture  capture.Config
	bank     bank.Config
	registry registry.Options
}

// parseFlags registers aqserver's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{}
	fs.StringVar(&c.cities, "cities", "coventry", "comma-separated city tenants, each a preset name or name=snapshot.snap (e.g. \"coventry,birmingham=bham.snap\"); the first is the default city")
	fs.Float64Var(&c.registry.Scale, "scale", 0.25, "city scale factor")
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8321", "listen address")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "optional loopback listener for /metrics, /debug/pprof, and /debug/captures (e.g. 127.0.0.1:8322)")
	fs.IntVar(&c.serve.Workers, "workers", 2, "concurrent engine runs (serving worker pool)")
	fs.IntVar(&c.serve.QueueDepth, "queue", 32, "admission queue depth; beyond it queries get 429")
	fs.IntVar(&c.serve.CacheSize, "cache-size", 64, "result-cache entries (negative disables)")
	fs.DurationVar(&c.serve.CacheTTL, "cache-ttl", 10*time.Minute, "result-cache entry lifetime")
	fs.DurationVar(&c.serve.JobTimeout, "job-timeout", 2*time.Minute, "per-query engine deadline; a request's deadline_ms can only tighten it")
	fs.IntVar(&c.serve.BreakerThreshold, "breaker-threshold", 5, "consecutive engine failures that trip the circuit breaker (negative disables)")
	fs.DurationVar(&c.serve.BreakerCooldown, "breaker-cooldown", 15*time.Second, "how long a tripped breaker stays open before probing the engine again")
	fs.StringVar(&c.faultSpec, "fault-spec", "", "deterministic fault injection for chaos runs, e.g. \"seed=42;spq:fail=0.05\" (never set in production)")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	fs.IntVar(&c.registry.Parallelism, "parallelism", runtime.GOMAXPROCS(0), "worker pool for offline pre-processing and each query's feature stage (results identical at any setting)")
	fs.BoolVar(&c.bankOn, "bank", true, "share priced trips across queries through the epoch-keyed label bank")
	fs.IntVar(&c.bank.Capacity, "bank-capacity", bank.DefaultCapacity, "label-bank entry capacity across all tenants (oldest segment evicts first)")
	fs.DurationVar(&c.serve.SlowQueryThreshold, "slow-query", 0, "log queries at or above this duration with their stage breakdown (0 disables)")
	fs.StringVar(&c.sloSpec, "slo", "", "per-tenant SLOs as \"p99=2s,avail=99.9\" with optional city overrides after semicolons, e.g. \"p99=2s,avail=99.9;coventry:p99=500ms\" (empty or \"off\" disables)")
	fs.Float64Var(&c.serve.BurnTripThreshold, "slo-burn-trip", 14.4, "fast-burn rate that trips the tenant's circuit breaker (SRE page threshold convention; 0 disables burn tripping)")
	fs.IntVar(&c.capture.MaxCaptures, "captures", 32, "slow-query captures retained in memory (0 disables capture)")
	fs.StringVar(&c.capture.Dir, "capture-dir", "", "mirror captures to this directory as <id>.json files")
	fs.StringVar(&c.snapshotDir, "snapshot-dir", "snapshots", "directory the /v1/cities/{name}/snapshots resource lists, saves to, and activates from")
	fs.StringVar(&c.logLevel, "log-level", "info", "minimum log level: info, warn, error")
	fs.BoolVar(&c.version, "version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if c.level, err = olog.ParseLevel(c.logLevel); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	if c.tenants, err = registry.ParseSpec(c.cities); err != nil {
		return nil, fmt.Errorf("-cities: %w", err)
	}
	if c.slo, err = slo.ParseSpec(c.sloSpec); err != nil {
		return nil, fmt.Errorf("-slo: %w", err)
	}
	if c.slo != nil {
		// A clause for a city no tenant serves would govern nothing.
		for city := range c.slo.PerCity {
			if !slices.ContainsFunc(c.tenants, func(t registry.TenantSpec) bool { return t.Name == city }) {
				return nil, fmt.Errorf("-slo: no tenant serves city %q", city)
			}
		}
	}
	return c, nil
}

func main() {
	// The flag package's own error output is plain text; a bad flag goes
	// through fatal like every other boot failure, and only -h prints usage.
	fs := flag.NewFlagSet("aqserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return
	}
	if err != nil {
		fatal("bad flags", err)
	}
	if c.version {
		buildinfo.Print(os.Stdout, "aqserver")
		return
	}
	logger = olog.New(os.Stderr, c.level).With("component", "aqserver")
	buildinfo.Register()
	if c.faultSpec != "" {
		spec, err := fault.ParseSpec(c.faultSpec)
		if err != nil {
			fatal("bad -fault-spec", err)
		}
		fault.Enable(fault.New(spec))
		logger.Warn("fault injection enabled", "spec", c.faultSpec)
	}
	if c.bankOn {
		c.registry.Bank = bank.New(c.bank)
		logger.Info("label bank enabled", "capacity", c.bank.Capacity)
	}
	c.serve.Accountant = account.New()
	c.serve.SLO = slo.New(c.slo)
	if c.serve.SLO != nil {
		logger.Info("slo engine enabled",
			"spec", c.sloSpec, "burn_trip", c.serve.BurnTripThreshold)
	}
	if c.capture.MaxCaptures > 0 {
		c.serve.Captures, err = capture.NewStore(c.capture)
		if err != nil {
			fatal("bad -capture-dir", err)
		}
	}
	logger.Info("loading cities", "spec", c.cities, "scale", c.registry.Scale)
	c.registry.Interval = gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"}
	// Warm the feature-extractor caches before accepting traffic (and after
	// every hot-swap) so the first query doesn't pay the cold-cache cost.
	c.registry.WarmCaches = true
	c.registry.Logger = logger
	c.registry.Accountant = c.serve.Accountant
	reg, err := registry.Open(c.tenants, c.registry)
	if err != nil {
		fatal("loading cities", err)
	}
	// Pre-register every tenant with the SLO engine so /v1/slo and the
	// burn-rate gauges exist from boot, not from first traffic.
	for _, name := range reg.Names() {
		c.serve.SLO.Ensure(name)
	}
	c.serve.Logger = logger
	s := newServer(reg, c.serve, serve.RunnerConfig{Parallelism: c.registry.Parallelism, Bank: c.registry.Bank})
	s.snapDir = c.snapshotDir

	if c.debugAddr != "" {
		var capturesPage http.Handler
		if c.serve.Captures != nil {
			capturesPage = capture.Handler(c.serve.Captures)
		}
		dbg, bound, err := obs.StartDebugServer(c.debugAddr, capturesPage, httpErrorLog())
		if err != nil {
			fatal("debug listener", err)
		}
		defer dbg.Close()
		logger.Info("debug endpoints up", "addr", bound)
	}

	srv := &http.Server{
		Addr:    c.addr,
		Handler: s.routes(),
		// The sync /query path legitimately holds a response open for the
		// full job timeout, so WriteTimeout must sit above it.
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      c.serve.JobTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          httpErrorLog(),
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("ready",
		"cities", strings.Join(reg.Names(), ","),
		"default_city", reg.DefaultName(),
		"addr", c.addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	// SIGHUP is the operator's reload: every snapshot-backed tenant whose
	// file changed on disk is hot-swapped; in-flight queries finish on the
	// epoch they acquired.
	hupCh := make(chan os.Signal, 1)
	signal.Notify(hupCh, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errCh:
			fatal("listen", err)
		case <-hupCh:
			results := reg.ReloadChanged()
			if len(results) == 0 {
				logger.Info("reload: no snapshots changed")
			}
			for _, res := range results {
				if res.Err != nil {
					logger.Warn("reload failed; old epoch keeps serving",
						"city", res.City, "error", res.Err)
				} else {
					logger.Info("reloaded",
						"city", res.City, "epoch", res.Info.Epoch)
				}
			}
		case sig := <-sigCh:
			logger.Info("draining in-flight jobs",
				"signal", sig.String(), "timeout", c.drainTimeout.String())
			break loop
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := s.mgr.Shutdown(ctx); err != nil {
		logger.Warn("job drain", "error", err)
	}
	logger.Info("bye")
}

// newServer wires a serve.Manager to a city registry through the serving
// layer's RegistryRunner: every run acquires its tenant's current engine
// generation, and the manager's per-tenant admission control and epoch
// staleness are fed from the registry.
func newServer(reg *registry.Registry, cfg serve.Config, rc serve.RunnerConfig) *server {
	cfg.Tenants = len(reg.Names())
	cfg.EpochOf = reg.EpochOf
	return &server{
		reg:      reg,
		mgr:      serve.NewManager(serve.RegistryRunner(reg, rc), cfg),
		bank:     rc.Bank,
		acct:     cfg.Accountant,
		slo:      cfg.SLO,
		sloTrip:  cfg.BurnTripThreshold,
		captures: cfg.Captures,
	}
}
