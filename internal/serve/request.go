// Package serve is the asynchronous query-serving layer between HTTP
// handlers and core.Engine. It gives the interactive policy-analysis loop
// the paper motivates a production shape: queries run on a bounded worker
// pool and are polled by job ID, identical results are reused through an
// LRU cache with TTL, N identical concurrent queries collapse into one
// engine run (singleflight), and a bounded admission queue sheds load fast
// instead of letting requests pile up until the server falls over.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"accessquery/internal/access"
	"accessquery/internal/core"
	"accessquery/internal/geo"
)

// Request is the one canonical serving-layer access query: the wire-level
// JSON body of POST /v1/query, the input to Submit, and — via Query — the
// single mapping onto a core.Query. The result-determining fields
// (category through samples_per_hour) feed the fingerprint; presentation
// and execution options (include_zones, deadline_ms) ride along but are
// deliberately excluded from it, so two requests that differ only in how
// they are rendered or how long they may run share a fingerprint, a cache
// entry, and an engine run.
type Request struct {
	// City routes the query to a tenant of the city registry. Empty means
	// the server's default tenant; the HTTP layer resolves the default
	// before submitting so every fingerprint is fully qualified. The city
	// is part of the fingerprint — identical queries against different
	// cities are different queries.
	City           string  `json:"city,omitempty"`
	Category       string  `json:"category"`
	Cost           string  `json:"cost"`
	Budget         float64 `json:"budget"`
	Model          string  `json:"model"`
	Seed           int64   `json:"seed"`
	SamplesPerHour int     `json:"samples_per_hour"`

	// DeadlineMS bounds this request's engine run in milliseconds; the
	// effective deadline is min(deadline_ms, job timeout). Zero means the
	// job timeout alone applies. Not fingerprinted: a deadline changes how
	// long a run may take, never its answer.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// IncludeZones asks the HTTP layer for the per-zone rows (can be
	// large). Pure presentation; not fingerprinted.
	IncludeZones bool `json:"include_zones,omitempty"`
}

// DecodeRequest is the single wire-decode-plus-validate path for query
// bodies: it parses JSON and returns the canonical (normalized) request or
// an error suitable for a 400 response. A field Request does not have is
// an error naming it, not silently dropped: a client asking for an option
// the server lacks must not get an answer computed without it.
func DecodeRequest(rd io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("bad JSON: %s", err)
	}
	return req.Normalize()
}

// validCosts are the cost kinds the paper evaluates.
var validCosts = map[string]bool{"JT": true, "GAC": true}

var validModels = func() map[core.ModelKind]bool {
	m := make(map[core.ModelKind]bool)
	for _, k := range core.AllModels {
		m[k] = true
	}
	for _, k := range core.ExtensionModels {
		m[k] = true
	}
	return m
}()

// Normalize canonicalizes a request (trim/case-fold strings, apply the
// documented defaults) and validates every field, so that a rejected
// request never reaches the engine and two spellings of the same query
// share one fingerprint. It returns the canonical form or a descriptive
// error suitable for a 400 response.
func (r Request) Normalize() (Request, error) {
	// City names are case-insensitive everywhere (registry lookup, breaker
	// keys, fingerprints). Whether the city actually exists is the server's
	// call — the serving layer only canonicalizes the spelling.
	r.City = strings.ToLower(strings.TrimSpace(r.City))
	r.Category = strings.ToLower(strings.TrimSpace(r.Category))
	if r.Category == "" {
		return r, fmt.Errorf("category is required")
	}
	r.Cost = strings.ToUpper(strings.TrimSpace(r.Cost))
	if r.Cost == "" {
		r.Cost = "JT"
	}
	if !validCosts[r.Cost] {
		return r, fmt.Errorf("unknown cost %q (want JT or GAC)", r.Cost)
	}
	if r.Budget == 0 {
		r.Budget = core.DefaultBudget
	}
	if r.Budget < 0 || r.Budget > 1 {
		return r, fmt.Errorf("budget %g outside (0, 1]", r.Budget)
	}
	r.Model = strings.ToUpper(strings.TrimSpace(r.Model))
	if r.Model == "" {
		r.Model = string(core.ModelMLP)
	}
	if !validModels[core.ModelKind(r.Model)] {
		return r, fmt.Errorf("unknown model %q", r.Model)
	}
	if r.SamplesPerHour < 0 {
		return r, fmt.Errorf("samples_per_hour %d is negative", r.SamplesPerHour)
	}
	if r.SamplesPerHour == 0 {
		r.SamplesPerHour = core.DefaultSamplesPerHour
	}
	if r.DeadlineMS < 0 {
		return r, fmt.Errorf("deadline_ms %d is negative", r.DeadlineMS)
	}
	return r, nil
}

// Query maps the canonical request onto an engine query over the given POI
// points. It is the only Request→core.Query translation; execution knobs
// that don't affect results (Workers, Parallelism) are layered on by the
// runner afterwards.
func (r Request) Query(pois []geo.Point) core.Query {
	cost := access.JourneyTime
	if r.Cost == "GAC" {
		cost = access.Generalized
	}
	return core.Query{
		POIs:           pois,
		Cost:           cost,
		Budget:         r.Budget,
		Model:          core.ModelKind(r.Model),
		SamplesPerHour: r.SamplesPerHour,
		Seed:           r.Seed,
	}
}

// Fingerprint returns a stable hash of the canonical request, the key for
// the result cache and in-flight deduplication. Call Normalize first;
// Fingerprint normalizes again defensively so a raw request can never
// alias a canonical one.
func (r Request) Fingerprint() string {
	if n, err := r.Normalize(); err == nil {
		r = n
	}
	// A length-prefixed field encoding: unambiguous even if a category
	// name ever contains a separator character. DeadlineMS and IncludeZones
	// are deliberately absent — they never change the answer. The buffers
	// stay on the stack, so a fingerprint costs one allocation: its string.
	var b [192]byte
	var num [32]byte
	buf := appendField(b[:0], r.City)
	buf = appendField(buf, r.Category)
	buf = appendField(buf, r.Cost)
	buf = appendField(buf, string(strconv.AppendFloat(num[:0], r.Budget, 'g', -1, 64)))
	buf = appendField(buf, r.Model)
	buf = appendField(buf, string(strconv.AppendInt(num[:0], r.Seed, 10)))
	buf = appendField(buf, string(strconv.AppendInt(num[:0], int64(r.SamplesPerHour), 10)))
	sum := sha256.Sum256(buf)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// appendField appends f to buf as "<len>:<f>;".
func appendField(buf []byte, f string) []byte {
	buf = strconv.AppendInt(buf, int64(len(f)), 10)
	buf = append(buf, ':')
	buf = append(buf, f...)
	return append(buf, ';')
}
