// Command aqserver serves dynamic access queries over HTTP against a
// synthetic city. It builds the offline structures once at startup and then
// answers queries through an asynchronous serving layer (internal/serve):
// a bounded worker pool with admission control, an LRU result cache with
// TTL, and in-flight deduplication, so identical concurrent queries cost
// one engine run and overload sheds fast instead of piling up.
//
// The API is versioned under /v1/ (see api.go):
//
//	GET  /healthz                       liveness probe
//	GET  /v1/metrics                    Prometheus text exposition
//	GET  /v1/stats                      serving-layer counters + per-tenant cost
//	GET  /v1/slo                        per-tenant SLO burn-rate reports
//	GET  /v1/cities                     tenant list with epochs
//	GET  /v1/cities/{name}              tenant detail
//	GET  /v1/cities/{name}/snapshots    list saved snapshots (POST saves one, 201)
//	POST /v1/cities/{name}/snapshots/{id}:activate
//	                                    hot-swap the tenant onto a snapshot (201)
//	POST /v1/cities/{name}/scenario     apply a network-delta batch (201)
//	GET  /v1/cities/{name}/scenario     applied deltas + blast radii
//	DELETE /v1/cities/{name}/scenario   revert to the pinned baseline
//	GET  /v1/zones                      zone list with centroids and demographics
//	GET  /v1/journey?from=3&to=50&depart=08:00:00
//	                                    one multimodal journey between zones
//	POST /v1/query                      JSON access query -> per-zone measures
//	POST /v1/query?async=1              enqueue; returns {"job_id": ...} (202)
//	GET  /v1/jobs                       list jobs (?state=, ?limit=, ?cursor=)
//	GET  /v1/jobs/{id}                  job status; includes the result when done
//	GET  /v1/jobs/{id}/trace            the run's execution report and span tree
//	GET  /v1/jobs/{id}/profile          slow-query capture for the job, if one fired
//	DELETE /v1/jobs/{id}                cancel a queued or running job
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
//
// Example query body:
//
//	{"category": "school", "cost": "JT", "budget": 0.05, "model": "MLP"}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/buildinfo"
	"accessquery/internal/core"
	"accessquery/internal/delta"
	"accessquery/internal/fault"
	"accessquery/internal/gtfs"
	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/capture"
	"accessquery/internal/obs/olog"
	"accessquery/internal/obs/slo"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
	"accessquery/internal/synth"
)

// logger is the process logger: structured JSON lines on stderr, stamped
// with the component.
var logger = olog.Default.With(olog.F("component", "aqserver"))

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

func main() {
	var (
		cityName     = flag.String("city", "coventry", "city preset: birmingham or coventry (ignored when -cities is set)")
		citiesSpec   = flag.String("cities", "", "comma-separated city tenants, each a preset name or name=snapshot.snap (e.g. \"coventry,birmingham=bham.snap\"); the first is the default city")
		scale        = flag.Float64("scale", 0.25, "city scale factor")
		addr         = flag.String("addr", "127.0.0.1:8321", "listen address")
		debugAddr    = flag.String("debug-addr", "", "optional loopback listener for /metrics, /debug/pprof, and /debug/captures (e.g. 127.0.0.1:8322)")
		workers      = flag.Int("workers", 2, "concurrent engine runs (serving worker pool)")
		queueDepth   = flag.Int("queue", 32, "admission queue depth; beyond it queries get 429")
		cacheSize    = flag.Int("cache-size", 64, "result-cache entries (negative disables)")
		cacheTTL     = flag.Duration("cache-ttl", 10*time.Minute, "result-cache entry lifetime")
		jobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "per-query engine deadline")
		defaultDL    = flag.Duration("default-deadline", 0, "default engine deadline for requests without deadline_ms (0 = job timeout only)")
		breakerN     = flag.Int("breaker-threshold", 5, "consecutive engine failures that trip the circuit breaker (negative disables)")
		breakerCD    = flag.Duration("breaker-cooldown", 15*time.Second, "how long a tripped breaker stays open before probing the engine again")
		faultSpec    = flag.String("fault-spec", "", "deterministic fault injection for chaos runs, e.g. \"seed=42;spq:fail=0.05\" (never set in production)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		parallelism  = flag.Int("parallelism", runtime.GOMAXPROCS(0), "worker pool for offline pre-processing and each query's feature stage (results identical at any setting)")
		bankEnable   = flag.Bool("bank", true, "share priced trips across queries through the epoch-keyed label bank")
		bankCap      = flag.Int("bank-capacity", bank.DefaultCapacity, "label-bank entry capacity across all tenants (oldest segment evicts first)")
		bankTTL      = flag.Duration("bank-ttl", 0, "label-bank entry lifetime (0 = no expiry; epoch retirement still invalidates)")
		slowQuery    = flag.Duration("slow-query", 0, "log queries at or above this duration with their stage breakdown (0 disables)")
		slowLogRate  = flag.Float64("slow-query-log-rate", 1, "slow-query log lines per second per tenant beyond the burst (suppressed lines are counted, not written; negative disables limiting)")
		slowLogBurst = flag.Int("slow-query-log-burst", 5, "slow-query log lines a tenant may burst before the rate limit applies")
		sloSpec      = flag.String("slo", "", "per-tenant SLOs as \"p99=2s,avail=99.9\" with optional city overrides after semicolons, e.g. \"p99=2s,avail=99.9;coventry:p99=500ms\" (empty or \"off\" disables)")
		sloBurnTrip  = flag.Float64("slo-burn-trip", 14.4, "fast-burn rate that trips the tenant's circuit breaker (SRE page threshold convention; 0 disables burn tripping)")
		captureMax   = flag.Int("captures", 32, "slow-query captures retained in memory (0 disables capture)")
		captureDir   = flag.String("capture-dir", "", "mirror captures to this directory as <id>.json files")
		snapshotDir  = flag.String("snapshot-dir", "snapshots", "directory the /v1/cities/{name}/snapshots resource lists, saves to, and activates from")
		captureCPU   = flag.Duration("capture-cpu", 0, "record a CPU profile of this duration after each capture trigger, single-flight (0 disables)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "aqserver")
		return
	}
	if lvl, err := olog.ParseLevel(*logLevel); err != nil {
		logger.Fatal("bad -log-level", olog.Err(err))
	} else {
		olog.Default.SetLevel(lvl)
	}
	buildinfo.Register()
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			logger.Fatal("bad -fault-spec", olog.Err(err))
		}
		fault.Enable(fault.New(spec))
		logger.Warn("fault injection enabled", olog.F("spec", *faultSpec))
	}
	// One -cities spec covers every tenant shape; the single-city flags
	// remain as the spec for a one-tenant registry.
	spec := *citiesSpec
	if spec == "" {
		spec = strings.ToLower(strings.TrimSpace(*cityName))
	}
	specs, err := registry.ParseSpec(spec)
	if err != nil {
		logger.Fatal("bad -cities", olog.Err(err))
	}
	var bk *bank.Bank
	if *bankEnable {
		bk = bank.New(bank.Config{Capacity: *bankCap, TTL: *bankTTL})
		logger.Info("label bank enabled",
			olog.F("capacity", *bankCap), olog.F("ttl", bankTTL.String()))
	}
	acct := account.New()
	sloParsed, err := slo.ParseSpec(*sloSpec)
	if err != nil {
		logger.Fatal("bad -slo", olog.Err(err))
	}
	sloEng := slo.New(sloParsed)
	if sloEng != nil {
		logger.Info("slo engine enabled",
			olog.F("spec", *sloSpec), olog.F("burn_trip", *sloBurnTrip))
	}
	var captures *capture.Store
	if *captureMax > 0 {
		captures, err = capture.NewStore(capture.Config{
			MaxCaptures: *captureMax,
			Dir:         *captureDir,
			CPUProfile:  *captureCPU,
		})
		if err != nil {
			logger.Fatal("bad -capture-dir", olog.Err(err))
		}
	}
	logger.Info("loading cities", olog.F("spec", spec), olog.F("scale", *scale))
	reg, err := registry.Open(specs, registry.Options{
		Scale:       *scale,
		Interval:    gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"},
		Parallelism: *parallelism,
		// Warm the feature-extractor caches before accepting traffic (and
		// after every hot-swap) so the first query doesn't pay the
		// cold-cache cost.
		WarmCaches: true,
		Bank:       bk,
		Logger:     logger,
		Accountant: acct,
	})
	if err != nil {
		logger.Fatal("loading cities", olog.Err(err))
	}
	// Pre-register every tenant with the SLO engine so /v1/slo and the
	// burn-rate gauges exist from boot, not from first traffic.
	for _, name := range reg.Names() {
		sloEng.Ensure(name)
	}
	s := newServer(reg, serve.Config{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		CacheSize:          *cacheSize,
		CacheTTL:           *cacheTTL,
		JobTimeout:         *jobTimeout,
		DefaultDeadline:    *defaultDL,
		BreakerThreshold:   *breakerN,
		BreakerCooldown:    *breakerCD,
		SlowQueryThreshold: *slowQuery,
		SlowLogPerSec:      *slowLogRate,
		SlowLogBurst:       *slowLogBurst,
		Logger:             logger,
		Accountant:         acct,
		SLO:                sloEng,
		BurnTripThreshold:  *sloBurnTrip,
		Captures:           captures,
	}, serve.RunnerConfig{Parallelism: *parallelism, Bank: bk})
	s.snapDir = *snapshotDir

	if *debugAddr != "" {
		var capturesPage http.Handler
		if captures != nil {
			capturesPage = capture.Handler(captures)
		}
		dbg, bound, err := obs.StartDebugServer(*debugAddr, capturesPage)
		if err != nil {
			logger.Fatal("debug listener", olog.Err(err))
		}
		defer dbg.Close()
		logger.Info("debug endpoints up", olog.F("addr", bound))
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: s.routes(),
		// The sync /query path legitimately holds a response open for the
		// full job timeout, so WriteTimeout must sit above it.
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *jobTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("ready",
		olog.F("cities", strings.Join(reg.Names(), ",")),
		olog.F("default_city", reg.DefaultName()),
		olog.F("addr", *addr))

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
			logger.Fatal("listen", olog.Err(err))
		case <-hupCh:
			results := reg.ReloadChanged()
			if len(results) == 0 {
				logger.Info("reload: no snapshots changed")
			}
			for _, res := range results {
				if res.Err != nil {
					logger.Warn("reload failed; old epoch keeps serving",
						olog.F("city", res.City), olog.Err(res.Err))
				} else {
					logger.Info("reloaded",
						olog.F("city", res.City), olog.F("epoch", res.Info.Epoch))
				}
			}
		case sig := <-sigCh:
			logger.Info("draining in-flight jobs",
				olog.F("signal", sig.String()), olog.F("timeout", drainTimeout.String()))
			break loop
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", olog.Err(err))
	}
	if err := s.mgr.Shutdown(ctx); err != nil {
		logger.Warn("job drain", olog.Err(err))
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

// tenantFor resolves the optional ?city= query parameter (or an explicit
// name) to a tenant, defaulting to the registry's first city. A miss has
// already been answered with 404 unknown_city when the second return is
// false.
func (s *server) tenantFor(w http.ResponseWriter, name string) (*registry.Tenant, bool) {
	if strings.TrimSpace(name) == "" {
		name = s.reg.DefaultName()
	}
	tn, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownCity,
			fmt.Sprintf("unknown city %q (serving: %s)", name, strings.Join(s.reg.Names(), ", ")))
		return nil, false
	}
	return tn, true
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// captureStats summarizes the capture store for /v1/stats.
type captureStats struct {
	Stored  int   `json:"stored"`
	Evicted int64 `json:"evicted"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var bankStats *bank.Stats
	if s.bank != nil {
		st := s.bank.Stats()
		bankStats = &st
	}
	var capStats *captureStats
	if s.captures != nil {
		capStats = &captureStats{Stored: s.captures.Len(), Evicted: s.captures.Evicted()}
	}
	writeJSON(w, http.StatusOK, struct {
		serve.Stats
		Tenants  []serve.TenantStats  `json:"tenants"`
		Bank     *bank.Stats          `json:"bank,omitempty"`
		Cost     []account.TenantCost `json:"cost,omitempty"`
		Captures *captureStats        `json:"captures,omitempty"`
	}{s.mgr.Stats(), s.mgr.TenantStats(), bankStats, s.acct.Snapshot(), capStats})
}

// handleSLO serves GET /v1/slo: every tenant's objectives and multi-window
// burn-rate report. With no -slo configured it answers 200 with
// enabled:false so dashboards can probe the feature without special-casing
// a 404.
func (s *server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	tenants := s.slo.Snapshot()
	if tenants == nil {
		tenants = []slo.TenantReport{}
	}
	body := map[string]interface{}{
		"enabled": s.slo != nil,
		"tenants": tenants,
	}
	if s.slo != nil {
		body["burn_trip_threshold"] = s.sloTrip
	}
	writeJSON(w, http.StatusOK, body)
}

// cityBody shapes one tenant for the /v1/cities responses: the registry's
// epoch/provenance info plus the serving layer's breaker state for that
// city.
func (s *server) cityBody(info registry.Info) map[string]interface{} {
	body := map[string]interface{}{
		"name":      info.Name,
		"epoch":     info.Epoch,
		"built":     info.Built,
		"source":    info.Source,
		"zones":     info.Zones,
		"stops":     info.Stops,
		"routes":    info.Routes,
		"interval":  info.Interval,
		"swaps":     info.Swaps,
		"in_flight": info.InFlight,
		"prep_ms":   info.PrepMS,
	}
	for _, ts := range s.mgr.TenantStats() {
		if ts.City == info.Name {
			body["breaker_open"] = ts.BreakerOpen
			body["serve"] = ts
			break
		}
	}
	return body
}

// handleCities serves GET /v1/cities — every tenant with its epoch, build
// provenance, and breaker state.
func (s *server) handleCities(w http.ResponseWriter, _ *http.Request) {
	infos := s.reg.Infos()
	cities := make([]map[string]interface{}, 0, len(infos))
	for _, info := range infos {
		cities = append(cities, s.cityBody(info))
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"default": s.reg.DefaultName(),
		"cities":  cities,
	})
}

// handleCityItem dispatches the /v1/cities/{name} item and its
// sub-resources: GET {name} (tenant detail including the POI catalogue),
// GET/POST {name}/snapshots and POST {name}/snapshots/{id}:activate (the
// snapshot store; see handleSnapshots), and POST/GET/DELETE
// {name}/scenario (network deltas; see handleScenario).
func (s *server) handleCityItem(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/cities/")
	name, sub, _ := strings.Cut(rest, "/")
	if name == "" || (strings.Contains(sub, "/") && !strings.HasPrefix(sub, "snapshots/")) {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"want /v1/cities/{name}, /v1/cities/{name}/snapshots[/{id}:activate], or /v1/cities/{name}/scenario")
		return
	}
	tn, ok := s.tenantFor(w, name)
	if !ok {
		return
	}
	if rest2, ok := strings.CutPrefix(sub, "snapshots/"); ok {
		s.handleSnapshotItem(w, r, tn, rest2)
		return
	}
	switch sub {
	case "snapshots":
		s.handleSnapshots(w, r, tn)
	case "scenario":
		s.handleScenario(w, r, tn)
	case "":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
			return
		}
		engine, _, release := tn.Acquire()
		defer release()
		body := s.cityBody(tn.Info())
		pois := map[synth.POICategory]int{}
		for cat, list := range engine.City.POIs {
			pois[cat] = len(list)
		}
		body["pois"] = pois
		body["road_nodes"] = engine.City.Road.NumNodes()
		body["trips"] = len(engine.City.Feed.Trips)
		if sc := engine.Scenario; sc != nil {
			body["scenario_deltas"] = sc.Deltas
		}
		if src := engine.SnapshotInfo(); src != nil {
			body["snapshot"] = src
		}
		writeJSON(w, http.StatusOK, body)
	default:
		writeError(w, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("no sub-resource %q under /v1/cities/{name}", sub))
	}
}

// handleScenario serves the /v1/cities/{name}/scenario sub-resource.
//
// POST applies one mutation batch {"mutations": [...]} on top of the
// tenant's scenario (starting one from the current engine if none is
// active): only the batch's blast radius is rebuilt, the derived engine is
// installed as a new epoch, and the response carries the applied delta
// with its blast radius (201 + Location). Invalid mutations are refused
// with 422 bad_mutation and the current epoch keeps serving.
//
// GET reports the scenario state — baseline epoch and every applied delta.
// DELETE reverts to the pinned baseline as a fresh epoch (404 when no
// scenario is active).
func (s *server) handleScenario(w http.ResponseWriter, r *http.Request, tn *registry.Tenant) {
	switch r.Method {
	case http.MethodPost:
		var body struct {
			Mutations []delta.Mutation `json:"mutations"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
			return
		}
		if len(body.Mutations) == 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				`want {"mutations": [...]} with at least one mutation`)
			return
		}
		info, applied, _, err := tn.ApplyScenario(body.Mutations)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, codeBadMutation, err.Error())
			return
		}
		w.Header().Set("Location", "/v1/cities/"+tn.Name+"/scenario")
		writeJSON(w, http.StatusCreated, map[string]interface{}{
			"city":  s.cityBody(info),
			"delta": applied,
		})
	case http.MethodGet:
		writeJSON(w, http.StatusOK, tn.Scenario())
	case http.MethodDelete:
		info, retired, err := tn.RevertScenario()
		if errors.Is(err, registry.ErrNoScenario) {
			writeError(w, http.StatusNotFound, codeNotFound, err.Error())
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		out := map[string]interface{}{"city": s.cityBody(info)}
		if retired != nil {
			out["retired_epoch"] = retired.Epoch
		}
		writeJSON(w, http.StatusOK, out)
	default:
		w.Header().Set("Allow", "GET, POST, DELETE")
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET, POST, DELETE only")
	}
}

func (s *server) handleZones(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r.URL.Query().Get("city"))
	if !ok {
		return
	}
	engine, _, release := tn.Acquire()
	defer release()
	writeJSON(w, http.StatusOK, engine.City.Zones)
}

func (s *server) handleJourney(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tn, ok := s.tenantFor(w, q.Get("city"))
	if !ok {
		return
	}
	engine, _, release := tn.Acquire()
	defer release()
	from, err1 := strconv.Atoi(q.Get("from"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "from and to must be zone indices")
		return
	}
	c := engine.City
	if from < 0 || from >= len(c.Zones) || to < 0 || to >= len(c.Zones) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "zone index out of range")
		return
	}
	depart := gtfs.Seconds(8 * 3600)
	if ds := q.Get("depart"); ds != "" {
		var err error
		depart, err = gtfs.ParseSeconds(ds)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad depart time, want HH:MM:SS")
			return
		}
	}
	j, legs, ok, err := engine.Router().RouteDetailed(c.ZoneNode[from], c.ZoneNode[to], depart)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no journey within the search horizon")
		return
	}
	type legOut struct {
		Mode   string `json:"mode"`
		Depart string `json:"depart"`
		Arrive string `json:"arrive"`
		Route  string `json:"route,omitempty"`
		Board  string `json:"board_stop,omitempty"`
		Alight string `json:"alight_stop,omitempty"`
	}
	outLegs := make([]legOut, len(legs))
	for i, leg := range legs {
		outLegs[i] = legOut{
			Mode:   leg.Mode.String(),
			Depart: leg.Depart.String(),
			Arrive: leg.Arrive.String(),
			Route:  string(leg.Route),
			Board:  string(leg.BoardStop),
			Alight: string(leg.AlightStop),
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"depart":        j.Depart.String(),
		"arrive":        j.Arrive.String(),
		"minutes":       j.Duration() / 60,
		"access_walk_s": j.AccessWalk,
		"wait_s":        j.Wait,
		"in_vehicle_s":  j.InVehicle,
		"egress_walk_s": j.EgressWalk,
		"boardings":     j.Boardings,
		"fare_pence":    j.Fare,
		"walk_only":     j.WalkOnly(),
		"legs":          outLegs,
	})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// serve.DecodeRequest is the one wire decode+validate path: the body is
	// the canonical serve.Request, presentation and deadline options
	// included.
	req, err := serve.DecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	// ?deadline_ms= overrides the body field, for clients that template the
	// body but set deadlines per call site.
	if ds := r.URL.Query().Get("deadline_ms"); ds != "" {
		ms, err := strconv.ParseInt(ds, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "deadline_ms must be a non-negative integer")
			return
		}
		req.DeadlineMS = ms
	}
	// ?city= overrides the body field the same way; the default tenant is
	// resolved here so every fingerprint (and cache entry) names its city
	// explicitly.
	if qc := r.URL.Query().Get("city"); qc != "" {
		req.City = strings.ToLower(strings.TrimSpace(qc))
	}
	tn, ok := s.tenantFor(w, req.City)
	if !ok {
		return
	}
	req.City = tn.Name
	if len(tn.Engine().City.POIs[synth.POICategory(req.Category)]) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("unknown or empty POI category %q", req.Category))
		return
	}
	async := r.URL.Query().Get("async") == "1"
	var job *serve.Job
	if async {
		job, err = s.mgr.SubmitAsync(req)
	} else {
		job, err = s.mgr.Submit(req)
	}
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if async {
		writeJSON(w, http.StatusAccepted, map[string]interface{}{
			"job_id":     job.ID,
			"state":      job.Snapshot().State,
			"status_url": "/v1/jobs/" + job.ID,
		})
		return
	}
	if _, err := s.mgr.Wait(r.Context(), job); err != nil {
		status, code := http.StatusInternalServerError, codeInternal
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			status, code = http.StatusGatewayTimeout, codeTimeout
		case errors.Is(err, serve.ErrShutdown):
			status, code = http.StatusServiceUnavailable, codeShuttingDown
		case errors.Is(err, serve.ErrCancelled):
			status, code = http.StatusConflict, codeCancelled
		}
		writeError(w, status, code, err.Error())
		return
	}
	snap := job.Snapshot()
	var explain *core.ExplainReport
	if r.URL.Query().Get("explain") == "1" {
		// The job snapshot carries the run's result and span tree (or, on
		// a cache hit, the producing run's); fold its execution report in.
		explain = core.Explain(snap.Result, snap.Trace)
	}
	writeAnswer(w, snap, req.IncludeZones, explain)
}

// writeAnswer writes a /v1/query answer: the blocks that differ per
// request ("cache" first, as in an encoded map), then the result's
// encoding, stored with the result and shared by the miss that produced it
// and every later cache hit.
func writeAnswer(w http.ResponseWriter, snap serve.Snapshot, includeZones bool, explain *core.ExplainReport) {
	result := encodedResult(snap, includeZones)
	blocks := provenance(snap)
	if explain != nil {
		blocks = append(blocks, block{"explain", explain})
	}
	var buf bytes.Buffer
	buf.Grow(len(result) + 256)
	sep := byte('{')
	for _, bl := range blocks {
		b, err := json.Marshal(bl.value)
		if err != nil {
			olog.Default.Error("encoding response", olog.Err(err))
			continue
		}
		buf.WriteByte(sep)
		fmt.Fprintf(&buf, "%q:%s", bl.name, b)
		sep = ','
	}
	if len(result) > len("{}") {
		buf.WriteByte(sep)
		buf.Write(result[1 : len(result)-1]) // the object's members
	}
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // a client that went away is not an error to report
}

// encodedResult returns resultBody's JSON object for a done job, encoding
// it only if no earlier response for the same result has.
func encodedResult(snap serve.Snapshot, includeZones bool) []byte {
	return snap.Body.Get(includeZones, func() []byte {
		b, err := json.Marshal(resultBody(snap.Result, includeZones))
		if err != nil {
			olog.Default.Error("encoding result", olog.Err(err))
			return []byte("{}")
		}
		return b
	})
}

// writeSubmitError maps admission failures to HTTP codes: a full queue is
// 429 with a Retry-After hint, a draining server is 503, an open circuit
// breaker is 503 with the breaker_open code.
func (s *server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		secs := int(s.mgr.RetryAfter().Round(time.Second).Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, codeQueueFull, "query queue full; retry later")
	case errors.Is(err, serve.ErrBreakerOpen):
		writeError(w, http.StatusServiceUnavailable, codeBreakerOpen,
			"circuit breaker open after repeated engine failures; retry later")
	case errors.Is(err, serve.ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "server shutting down")
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
	}
}

// block is one named member of a response object.
type block struct {
	name  string
	value interface{}
}

// provenance lists what a query or job response says about how its answer
// was served, so reduced fidelity, staleness and which engine epoch
// computed it are always visible to the client: "cache" always, then
// "degraded" and "stale" when they apply.
func provenance(snap serve.Snapshot) []block {
	cache := map[string]interface{}{
		"hit":  snap.CacheHit,
		"city": snap.City,
	}
	if snap.Epoch > 0 {
		cache["epoch"] = snap.Epoch
	}
	if snap.EpochStale {
		// The answer is an honest cache hit, but a hot-swap has installed a
		// newer engine since it was computed.
		cache["epoch_stale"] = true
	}
	blocks := []block{{"cache", cache}}
	if snap.Result != nil && snap.Result.Degraded != nil {
		blocks = append(blocks, block{"degraded", snap.Result.Degraded})
	}
	if snap.Stale {
		stale := map[string]interface{}{
			"served_from_expired_cache": true,
			"age_seconds":               snap.StaleFor.Seconds(),
		}
		if snap.Epoch > 0 {
			stale["epoch"] = snap.Epoch
		}
		blocks = append(blocks, block{"stale", stale})
	}
	return blocks
}

// handleJobs serves GET /v1/jobs: the job listing with optional ?state=
// filter and ?limit=/?cursor= pagination.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := serve.State(q.Get("state"))
	if state != "" && !serve.ValidState(state) {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("unknown state %q (want queued, running, done, failed, or cancelled)", state))
		return
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	snaps, next := s.mgr.List(state, limit, q.Get("cursor"))
	jobs := make([]map[string]interface{}, 0, len(snaps))
	for _, snap := range snaps {
		j := map[string]interface{}{
			"id":        snap.ID,
			"state":     snap.State,
			"cache_hit": snap.CacheHit,
			"created":   snap.Created,
		}
		if snap.City != "" {
			j["city"] = snap.City
		}
		if snap.Stale {
			j["stale"] = true
		}
		if snap.Error != "" {
			j["error"] = snap.Error
		}
		jobs = append(jobs, j)
	}
	body := map[string]interface{}{"jobs": jobs}
	if next != "" {
		body["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, body)
}

// handleJob serves GET /v1/jobs/{id} — job state, the stage-latency
// breakdown of the run, and the result once done — GET
// /v1/jobs/{id}/trace, the run's execution report with its span tree, the
// same report ?explain=1 inlines (also available for cache-hit jobs, which
// carry the producing run's result and trace), and DELETE
// /v1/jobs/{id}, which cancels a queued or running job.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, wantTrace := strings.CutSuffix(id, "/trace")
	var wantProfile bool
	if !wantTrace {
		id, wantProfile = strings.CutSuffix(id, "/profile")
	}
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"want /v1/jobs/{id}, /v1/jobs/{id}/trace, or /v1/jobs/{id}/profile")
		return
	}
	if wantProfile {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
			return
		}
		// A capture can outlive its job's retention window, so the store is
		// consulted directly rather than through the job table.
		if c, ok := s.captures.ByJob(id); ok {
			writeJSON(w, http.StatusOK, c)
			return
		}
		if s.captures == nil {
			writeError(w, http.StatusNotFound, codeNotFound, "slow-query capture is disabled (-captures 0)")
			return
		}
		writeError(w, http.StatusNotFound, codeNotFound, "no capture recorded for job "+id)
		return
	}
	if r.Method == http.MethodDelete {
		if wantTrace {
			writeError(w, http.StatusBadRequest, codeBadRequest, "only /v1/jobs/{id} can be cancelled")
			return
		}
		switch err := s.mgr.Cancel(id); {
		case err == nil:
			writeJSON(w, http.StatusOK, map[string]interface{}{
				"id": id, "state": serve.StateCancelled,
			})
		case errors.Is(err, serve.ErrUnknownJob):
			writeError(w, http.StatusNotFound, codeNotFound, "unknown job "+id)
		case errors.Is(err, serve.ErrNotCancellable):
			writeError(w, http.StatusConflict, codeNotCancellable, "job "+id+" already finished")
		default:
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		}
		return
	}
	job, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job "+id)
		return
	}
	snap := job.Snapshot()
	if wantTrace {
		if snap.Trace == nil {
			writeError(w, http.StatusNotFound, codeNotFound, "no trace recorded for job "+id)
			return
		}
		writeJSON(w, http.StatusOK, core.Explain(snap.Result, snap.Trace))
		return
	}
	body := map[string]interface{}{
		"id":        snap.ID,
		"state":     snap.State,
		"cache_hit": snap.CacheHit,
		"created":   snap.Created,
	}
	if snap.City != "" {
		body["city"] = snap.City
	}
	if snap.Epoch > 0 {
		body["epoch"] = snap.Epoch
	}
	if len(snap.Stages) > 0 {
		body["stages"] = snap.Stages
	}
	if snap.Error != "" {
		body["error"] = snap.Error
	}
	if snap.State == serve.StateDone && snap.Result != nil {
		body["result"] = json.RawMessage(encodedResult(snap, r.URL.Query().Get("include_zones") == "1"))
		for _, bl := range provenance(snap) {
			body[bl.name] = bl.value
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// resultBody shapes an engine result for JSON, optionally with the
// per-zone rows.
func resultBody(res *core.Result, includeZones bool) map[string]interface{} {
	body := map[string]interface{}{
		"fairness":        res.Fairness,
		"walk_only_share": res.WalkOnlyShare,
		"spqs":            res.Timing.SPQs,
		"elapsed_ms":      res.Timing.Total().Milliseconds(),
	}
	if ms := res.MatrixStats; ms.FullTrips > 0 {
		body["matrix_trips"] = ms.Trips
		body["matrix_full"] = ms.FullTrips
		body["reduction_pct"] = ms.ReductionPct
	}
	if includeZones {
		type zoneOut struct {
			Zone    int     `json:"zone"`
			MAC     float64 `json:"mac"`
			ACSD    float64 `json:"acsd"`
			Class   string  `json:"class"`
			Labeled bool    `json:"labeled"`
		}
		var zones []zoneOut
		for i := range res.MAC {
			if !res.Valid[i] {
				continue
			}
			zones = append(zones, zoneOut{
				Zone: i, MAC: res.MAC[i], ACSD: res.ACSD[i],
				Class: res.Classes[i].String(), Labeled: res.Labeled[i],
			})
		}
		body["zones"] = zones
	}
	return body
}
