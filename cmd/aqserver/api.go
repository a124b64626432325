// HTTP API surface of aqserver: the route table, the wrapper every route
// shares, the error envelope, and the operational endpoints (liveness,
// metrics, stats, SLO reports).
//
// The API is versioned under /v1/ (see apiSurface). Nothing else is
// served: any other path, including the pre-/v1 spellings earlier releases
// answered, is a 404 in the one JSON error envelope
//
//	{"error": {"code": "queue_full", "message": "query queue full; retry later", "retryable": true}}
//
// emitted by a single helper for every failure path. The retryable flag
// tells clients mechanically whether backing off and resending the same
// request can succeed (full queue, open breaker, timeout, draining server)
// or whether the request itself is at fault.
package main

import (
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"accessquery/internal/bank"
	"accessquery/internal/obs"
	"accessquery/internal/obs/account"
	"accessquery/internal/obs/slo"
	"accessquery/internal/serve"
)

// Stable machine-readable error codes of the JSON error envelope.
const (
	codeBadRequest       = "bad_request"
	codeMethodNotAllowed = "method_not_allowed"
	codeUnsupportedMedia = "unsupported_media_type"
	codeNotFound         = "not_found"
	codeQueueFull        = "queue_full"
	codeShuttingDown     = "shutting_down"
	codeTimeout          = "timeout"
	codeInternal         = "internal"
	codeBreakerOpen      = "breaker_open"
	codeCancelled        = "cancelled"
	codeNotCancellable   = "not_cancellable"
	codeUnknownCity      = "unknown_city"
	codeBadSnapshot      = "bad_snapshot"
	codeBadMutation      = "bad_mutation"
)

// retryableCodes marks the errors a client can cure by waiting and
// resending the identical request.
var retryableCodes = map[string]bool{
	codeQueueFull:    true,
	codeShuttingDown: true,
	codeTimeout:      true,
	codeBreakerOpen:  true,
}

// apiRoute is one entry of the served surface: a net/http pattern
// "METHOD /path" with {name}/{id} wildcards, and the handler it is mounted
// on. One entry per (method, path) pair openapi.yaml documents; the mux,
// the 405 answers and the openapi.yaml contract tests all read this table.
type apiRoute struct {
	pattern string
	handler func(*server, http.ResponseWriter, *http.Request)
}

// apiSurface is the versioned resource grammar: collections are plural
// nouns (/v1/cities, /v1/jobs), items nest under them, and verbs are
// sub-resources of the item they act on (/v1/cities/{name}/scenario). A
// path's methods are in its Allow header's order. /healthz is unversioned
// by infra convention. It is a function because the handlers it names
// read it back through methodNotAllowed, which a package variable's
// initializer cannot allow (an initialization cycle).
func apiSurface() []apiRoute {
	return []apiRoute{
		{"GET /healthz", (*server).handleHealth},
		{"GET /v1/metrics", (*server).handleMetrics},
		{"GET /v1/stats", (*server).handleStats},
		{"GET /v1/slo", (*server).handleSLO},
		{"GET /v1/cities", (*server).handleCities},
		{"GET /v1/cities/{name}", (*server).getCity},
		{"GET /v1/cities/{name}/snapshots", (*server).listSnapshots},
		{"POST /v1/cities/{name}/snapshots", (*server).saveSnapshot},
		// GET {id} inspects, POST {id}:activate hot-swaps (see snapshotItem).
		{"GET /v1/cities/{name}/snapshots/{id}", (*server).getSnapshot},
		{"POST /v1/cities/{name}/snapshots/{id}", (*server).activateSnapshot},
		{"GET /v1/cities/{name}/scenario", (*server).getScenario},
		{"POST /v1/cities/{name}/scenario", (*server).applyScenario},
		{"DELETE /v1/cities/{name}/scenario", (*server).revertScenario},
		{"GET /v1/zones", (*server).handleZones},
		{"GET /v1/journey", (*server).handleJourney},
		{"POST /v1/query", (*server).handleQuery},
		{"GET /v1/jobs", (*server).handleJobs},
		{"GET /v1/jobs/{id}", (*server).getJob},
		{"DELETE /v1/jobs/{id}", (*server).cancelJob},
		{"GET /v1/jobs/{id}/trace", (*server).jobTrace},
		{"GET /v1/jobs/{id}/profile", (*server).jobProfile},
	}
}

// routes mounts apiSurface on one mux, each entry behind per-route metrics
// and, for POST, the JSON Content-Type gate (415). Each distinct path also
// gets a method-less pattern answering 405 in the error envelope; it is
// more specific than "/", so net/http's plain-text 405 never escapes. Every
// other path falls through to a 404 in the envelope.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mounted := map[string]bool{}
	for _, rt := range apiSurface() {
		_, path, _ := strings.Cut(rt.pattern, " ")
		mux.Handle(rt.pattern, instrument(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && !jsonBody(r) {
				writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedMedia,
					"request body must be Content-Type: application/json")
				return
			}
			rt.handler(s, w, r)
		}))
		if !mounted[path] {
			mounted[path] = true
			mux.Handle(path, instrument(path, func(w http.ResponseWriter, _ *http.Request) {
				methodNotAllowed(w, path)
			}))
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, codeNotFound, "no route "+r.URL.Path+"; the API lives under /v1/ (see openapi.yaml)")
	})
	return mux
}

// methodNotAllowed answers 405 for a request the path's apiSurface
// entries do not take, with Allow naming the ones they do.
func methodNotAllowed(w http.ResponseWriter, path string) {
	var methods []string
	for _, rt := range apiSurface() {
		if method, p, _ := strings.Cut(rt.pattern, " "); p == path {
			methods = append(methods, method)
		}
	}
	allow := strings.Join(methods, ", ")
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, allow+" only")
}

// instrument records per-route request counters and latency histograms
// under the resource path.
func instrument(route string, fn http.HandlerFunc) http.Handler {
	durations := obs.Histogram(fmt.Sprintf("aq_http_request_seconds{route=%q}", route))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			durations.ObserveDuration(time.Since(start))
			obs.Counter(fmt.Sprintf("aq_http_requests_total{route=%q,code=%q}",
				route, strconv.Itoa(sw.status()))).Inc()
		}()
		fn(sw, r)
	})
}

// jsonBody reports whether the request body is declared as JSON. An absent
// Content-Type is accepted for compatibility with terse curl usage.
func jsonBody(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == "application/json"
}

// statusWriter captures the response status for metrics labels.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logger.Error("encoding response", "error", err)
	}
}

// errorBody is the single JSON error envelope every handler emits.
type errorBody struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		Retryable bool   `json:"retryable"`
	} `json:"error"`
}

// writeError emits the error envelope. All failure paths in this package
// must go through it so clients can rely on one shape; the retryable flag
// is derived from the code, never set ad hoc.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	body.Error.Retryable = retryableCodes[code]
	writeJSON(w, status, body)
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the process-wide registry in Prometheus text
// exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.MetricsHandler(obs.Default).ServeHTTP(w, r)
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
