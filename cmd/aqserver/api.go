// HTTP API surface of aqserver.
//
// The API is versioned under /v1/ with a consistent resource grammar:
// plural-noun collections, items nested under them, and verbs as
// sub-resources (see apiSurface). Nothing else is served: any other path,
// including the pre-/v1 spellings earlier releases answered, is a 404 in
// the error envelope below.
//
// Every handler goes through the same wrapper: method enforcement (405
// with an Allow header), Content-Type enforcement for request bodies (415
// unless application/json), per-route request counters and latency
// histograms, and one JSON error envelope
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
	"slices"
	"strconv"
	"strings"
	"time"

	"accessquery/internal/obs"
	"accessquery/internal/obs/olog"
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

// apiRoute is one entry of the canonical /v1 surface. The docPaths name
// every resource the mux pattern serves, with path parameters in OpenAPI
// {curly} form — the openapi.yaml documentation test walks this table, so
// a route added here without a matching spec entry fails the build.
type apiRoute struct {
	pattern  string   // mux pattern the handler is mounted on
	methods  []string // methods the wrapper admits (handler splits further)
	docPaths []string // resources served, as documented in openapi.yaml
	handler  func(s *server) http.HandlerFunc
}

// apiSurface is the versioned resource grammar: collections are plural
// nouns (/v1/cities, /v1/jobs), items nest under them, and verbs are
// sub-resources of the item they act on (/v1/cities/{name}/scenario).
var apiSurface = []apiRoute{
	{"/v1/metrics", []string{http.MethodGet}, []string{"/v1/metrics"},
		func(s *server) http.HandlerFunc { return s.handleMetrics }},
	{"/v1/stats", []string{http.MethodGet}, []string{"/v1/stats"},
		func(s *server) http.HandlerFunc { return s.handleStats }},
	{"/v1/slo", []string{http.MethodGet}, []string{"/v1/slo"},
		func(s *server) http.HandlerFunc { return s.handleSLO }},
	{"/v1/cities", []string{http.MethodGet}, []string{"/v1/cities"},
		func(s *server) http.HandlerFunc { return s.handleCities }},
	// /v1/cities/{name} details one tenant; {name}/snapshots lists/saves
	// engine snapshots and {id}:activate hot-swaps onto one;
	// {name}/scenario applies/lists/reverts network deltas. The method
	// split per sub-resource is enforced in the handler.
	{"/v1/cities/", []string{http.MethodGet, http.MethodPost, http.MethodDelete},
		[]string{"/v1/cities/{name}", "/v1/cities/{name}/snapshots",
			"/v1/cities/{name}/snapshots/{id}", "/v1/cities/{name}/snapshots/{id}:activate",
			"/v1/cities/{name}/scenario"},
		func(s *server) http.HandlerFunc { return s.handleCityItem }},
	{"/v1/zones", []string{http.MethodGet}, []string{"/v1/zones"},
		func(s *server) http.HandlerFunc { return s.handleZones }},
	{"/v1/journey", []string{http.MethodGet}, []string{"/v1/journey"},
		func(s *server) http.HandlerFunc { return s.handleJourney }},
	{"/v1/query", []string{http.MethodPost}, []string{"/v1/query"},
		func(s *server) http.HandlerFunc { return s.handleQuery }},
	{"/v1/jobs", []string{http.MethodGet}, []string{"/v1/jobs"},
		func(s *server) http.HandlerFunc { return s.handleJobs }},
	{"/v1/jobs/", []string{http.MethodGet, http.MethodDelete},
		[]string{"/v1/jobs/{id}", "/v1/jobs/{id}/trace", "/v1/jobs/{id}/profile"},
		func(s *server) http.HandlerFunc { return s.handleJob }},
}

// routes wires the liveness probe and the versioned API onto one mux.
// Every other path falls through to a 404 in the error envelope.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	// /healthz is a liveness probe, deliberately unversioned (infra
	// convention).
	mux.Handle("/healthz", handle("/healthz", s.handleHealth, http.MethodGet))
	for _, rt := range apiSurface {
		mux.Handle(rt.pattern, handle(rt.pattern, rt.handler(s), rt.methods...))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, codeNotFound, "no route "+r.URL.Path+"; the API lives under /v1/ (see openapi.yaml)")
	})
	return mux
}

// handle wraps an endpoint with method enforcement, Content-Type checks,
// and per-route metrics under the canonical route label.
func handle(route string, fn http.HandlerFunc, methods ...string) http.Handler {
	durations := obs.Histogram(fmt.Sprintf("aq_http_request_seconds{route=%q}", route))
	allow := strings.Join(methods, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			durations.ObserveDuration(time.Since(start))
			obs.Counter(fmt.Sprintf("aq_http_requests_total{route=%q,code=%q}",
				route, strconv.Itoa(sw.status()))).Inc()
		}()
		if !slices.Contains(methods, r.Method) {
			sw.Header().Set("Allow", allow)
			writeError(sw, http.StatusMethodNotAllowed, codeMethodNotAllowed, allow+" only")
			return
		}
		if r.Method == http.MethodPost && !jsonBody(r) {
			writeError(sw, http.StatusUnsupportedMediaType, codeUnsupportedMedia,
				"request body must be Content-Type: application/json")
			return
		}
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
		olog.Default.Error("encoding response", olog.Err(err))
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

// handleMetrics serves the process-wide registry in Prometheus text
// exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.MetricsHandler(obs.Default).ServeHTTP(w, r)
}
