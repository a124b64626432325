package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/delta"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
)

const city = "coventry"

// churnMutation is the what-if the scenario_churn workload applies and
// reverts: a transit mutation, so the new epoch starts with an empty bank
// segment and a partially rebuilt forest.
var churnMutation = []delta.Mutation{{Kind: delta.CloseRoute, Route: "RT_X1"}}

// reply is what a workload needs to know about one query answer.
type reply struct {
	hit      bool
	epoch    uint64
	spqs     int64 // -1 when the body was too large to decode in the loop
	degraded bool
	// payload is the HTTP body without its "cache" block, the part that
	// must be byte-identical between a miss and a later hit. Nil for
	// in-process answers.
	payload []byte
	bytes   int
}

// target is one closed-loop client of the system under test: an HTTP
// connection to the aqserver subprocess for end-to-end runs, or the
// in-process serving stack for the traced run. Workloads are written once
// against it.
type target interface {
	query(req serve.Request) (reply, error)
	applyScenario() (epoch uint64, err error)
	revertScenario() (epoch uint64, err error)
}

// httpTarget is one persistent connection to the server. It counts every
// request as an attempt and every transport error, non-2xx status or
// degraded answer as a failure.
type httpTarget struct {
	base      string
	client    *http.Client
	attempted int
	failed    int
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{
		base: base,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			// A cold query takes 0.3 s and the dearest warm-up query 2 s; a
			// request that takes this long has hung.
			Timeout: 30 * time.Second,
		},
	}
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

// do sends one request and returns the body of a response with the wanted
// status.
func (h *httpTarget) do(method, path string, body []byte, want int) ([]byte, error) {
	h.attempted++
	out, err := h.roundTrip(method, path, body, want)
	if err != nil {
		h.failed++
	}
	return out, err
}

func (h *httpTarget) roundTrip(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, out)
	}
	return out, nil
}

func (h *httpTarget) query(req serve.Request) (reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	out, err := h.do(http.MethodPost, "/v1/query", body, http.StatusOK)
	if err != nil {
		return reply{}, err
	}
	rep, err := parseQueryBody(out)
	if err == nil && rep.degraded {
		err = fmt.Errorf("degraded answer: %.200s", out)
	}
	if err != nil {
		h.failed++
	}
	return rep, err
}

// smallBody is the size up to which the client decodes an answer in full
// inside the measured loop. The 24 KB include_zones bodies of hot_repeat
// are compared byte-wise against their verified miss instead, so the load
// generator does not spend the server's CPU on JSON.
const smallBody = 4096

// parseQueryBody splits a /v1/query answer into its cache block and the
// rest.
func parseQueryBody(body []byte) (reply, error) {
	cacheJSON, rest, err := splitCache(body)
	if err != nil {
		return reply{}, err
	}
	var cache struct {
		Hit   bool   `json:"hit"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(cacheJSON, &cache); err != nil {
		return reply{}, fmt.Errorf("cache block %s: %w", cacheJSON, err)
	}
	rep := reply{
		hit: cache.Hit, epoch: cache.Epoch, spqs: -1,
		degraded: bytes.Contains(rest, []byte(`"degraded":`)),
		payload:  rest, bytes: len(body),
	}
	if len(body) <= smallBody {
		var small struct {
			SPQs *int64 `json:"spqs"`
		}
		if err := json.Unmarshal(body, &small); err != nil || small.SPQs == nil {
			return reply{}, fmt.Errorf("answer without spqs: %.200s", body)
		}
		rep.spqs = *small.SPQs
	}
	return rep, nil
}

// splitCache cuts the "cache" object out of an answer. The server encodes
// a map, so keys are sorted and "cache" — a flat object — comes first;
// that shape is cut without decoding. Any other shape is decoded in full.
func splitCache(body []byte) (cacheJSON, rest []byte, err error) {
	const prefix = `{"cache":{`
	if bytes.HasPrefix(body, []byte(prefix)) {
		if end := bytes.IndexByte(body, '}'); end > 0 {
			return body[len(prefix)-1 : end+1], body[end+1:], nil
		}
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		return nil, nil, fmt.Errorf("answer is not a JSON object: %.200s", body)
	}
	cacheJSON, ok := fields["cache"]
	if !ok {
		return nil, nil, fmt.Errorf("answer without cache block: %.200s", body)
	}
	delete(fields, "cache")
	rest, err = json.Marshal(fields)
	return cacheJSON, rest, err
}

// swapEpoch reads the epoch a scenario apply or revert installed.
func swapEpoch(body []byte) (uint64, error) {
	var out struct {
		City struct {
			Epoch uint64 `json:"epoch"`
		} `json:"city"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.City.Epoch == 0 {
		return 0, fmt.Errorf("scenario answer without city.epoch: %.200s", body)
	}
	return out.City.Epoch, nil
}

const scenarioPath = "/v1/cities/" + city + "/scenario"

func (h *httpTarget) applyScenario() (uint64, error) {
	body, err := json.Marshal(map[string]interface{}{"mutations": churnMutation})
	if err != nil {
		return 0, err
	}
	out, err := h.do(http.MethodPost, scenarioPath, body, http.StatusCreated)
	if err != nil {
		return 0, err
	}
	return swapEpoch(out)
}

func (h *httpTarget) revertScenario() (uint64, error) {
	out, err := h.do(http.MethodDelete, scenarioPath, nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	return swapEpoch(out)
}

// localTarget drives the in-process serving stack of the traced run: the
// same serve.Manager over the same registry runner aqserver wires up,
// called serially, with a span around every call.
type localTarget struct {
	mgr *serve.Manager
	tn  *registry.Tenant
	tr  *tracer
}

func (l *localTarget) query(req serve.Request) (reply, error) {
	req.City = city
	req, err := req.Normalize()
	if err != nil {
		return reply{}, err
	}
	sp := l.tr.start("serve.do", root)
	l.tr.enter(sp)
	job, err := l.mgr.Submit(req)
	var res *core.Result
	if err == nil {
		res, err = l.mgr.Wait(context.Background(), job)
	}
	l.tr.leave()
	l.tr.end(sp)
	if err != nil {
		return reply{}, err
	}
	snap := job.Snapshot()
	rep := reply{hit: snap.CacheHit, epoch: snap.Epoch, spqs: res.Timing.SPQs, degraded: res.Degraded != nil}
	if rep.degraded {
		return rep, fmt.Errorf("degraded answer: %s", res.Degraded)
	}
	return rep, nil
}

func (l *localTarget) applyScenario() (uint64, error) {
	sp := l.tr.start("registry.apply_scenario", root)
	info, _, _, err := l.tn.ApplyScenario(churnMutation)
	l.tr.end(sp)
	return info.Epoch, err
}

func (l *localTarget) revertScenario() (uint64, error) {
	sp := l.tr.start("registry.revert_scenario", root)
	info, _, err := l.tn.RevertScenario()
	l.tr.end(sp)
	return info.Epoch, err
}
