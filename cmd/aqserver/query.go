// The /v1/query resource — one access query, answered synchronously or
// enqueued as a job (?async=1) — and the /v1/jobs resource those jobs are
// listed, polled, cancelled and explained under. Both share one answer
// encoding.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/serve"
	"accessquery/internal/synth"
)

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// serve.DecodeRequest is the one wire decode+validate path: the body is
	// the canonical serve.Request, presentation and deadline options
	// included.
	req, err := serve.DecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	q := r.URL.Query()
	// ?deadline_ms= overrides the body field, for clients that template the
	// body but set deadlines per call site.
	if ds := q.Get("deadline_ms"); ds != "" {
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
	if qc := q.Get("city"); qc != "" {
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
	async := q.Get("async") == "1"
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
	if q.Get("explain") == "1" {
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
			logger.Error("encoding response", "error", err)
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
			logger.Error("encoding result", "error", err)
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
		w.Header().Set("Retry-After", strconv.Itoa(max(secs, 1)))
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
		j := jobSummary(snap)
		if snap.Stale {
			j["stale"] = true
		}
		jobs = append(jobs, j)
	}
	body := map[string]interface{}{"jobs": jobs}
	if next != "" {
		body["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, body)
}

// getJob serves GET /v1/jobs/{id}: job state, the stage-latency breakdown
// of the run, and the result once done.
func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobSnapshot(w, r)
	if !ok {
		return
	}
	body := jobSummary(snap)
	if snap.Epoch > 0 {
		body["epoch"] = snap.Epoch
	}
	if len(snap.Stages) > 0 {
		body["stages"] = snap.Stages
	}
	if snap.State == serve.StateDone && snap.Result != nil {
		body["result"] = json.RawMessage(encodedResult(snap, r.URL.Query().Get("include_zones") == "1"))
		for _, bl := range provenance(snap) {
			body[bl.name] = bl.value
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// cancelJob serves DELETE /v1/jobs/{id}: it cancels a queued or running
// job.
func (s *server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
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
}

// jobTrace serves GET /v1/jobs/{id}/trace: the run's execution report with
// its span tree, the same report ?explain=1 inlines (also available for
// cache-hit jobs, which carry the producing run's result and trace).
func (s *server) jobTrace(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobSnapshot(w, r)
	if !ok {
		return
	}
	if snap.Trace == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "no trace recorded for job "+snap.ID)
		return
	}
	writeJSON(w, http.StatusOK, core.Explain(snap.Result, snap.Trace))
}

// jobProfile serves GET /v1/jobs/{id}/profile: the slow-query capture
// taken for the job's run, if one fired.
func (s *server) jobProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
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
}

// jobSnapshot looks up the {id} job, answering 404 when the table does not
// hold it.
func (s *server) jobSnapshot(w http.ResponseWriter, r *http.Request) (serve.Snapshot, bool) {
	job, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job "+r.PathValue("id"))
		return serve.Snapshot{}, false
	}
	return job.Snapshot(), true
}

// jobSummary is the part of a job's body the listing and the item share.
func jobSummary(snap serve.Snapshot) map[string]interface{} {
	body := map[string]interface{}{
		"id":        snap.ID,
		"state":     snap.State,
		"cache_hit": snap.CacheHit,
		"created":   snap.Created,
	}
	if snap.City != "" {
		body["city"] = snap.City
	}
	if snap.Error != "" {
		body["error"] = snap.Error
	}
	return body
}
