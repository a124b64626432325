// Package apiclient is the thin Go client of aqserver's /v1 API used by
// the CLI tools (aqquery -server, aqbench -exp serve). It posts the same
// canonical serve.Request the server decodes — the city field included, so
// a CLI query routes to a named tenant of a multi-city server — and
// surfaces the server's JSON error envelope as a typed error.
package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"accessquery/internal/serve"
)

// Client talks to one aqserver instance.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8321".
	Base string
	// HTTP overrides the transport; nil uses a client whose timeout
	// comfortably exceeds the server's default job timeout.
	HTTP *http.Client
}

// New returns a client for the server at base.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 3 * time.Minute}
}

// APIError is the server's machine-readable error envelope plus the HTTP
// status, so callers can switch on the stable code ("unknown_city",
// "queue_full", ...) instead of parsing messages.
type APIError struct {
	Status    int
	Code      string
	Message   string
	Retryable bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// CacheBlock is a query response's provenance block: whether the answer
// came from cache, and which city/engine-epoch computed it.
type CacheBlock struct {
	Hit        bool   `json:"hit"`
	City       string `json:"city"`
	Epoch      uint64 `json:"epoch"`
	EpochStale bool   `json:"epoch_stale"`
}

// ZoneRow is one per-zone measure row (include_zones).
type ZoneRow struct {
	Zone    int     `json:"zone"`
	MAC     float64 `json:"mac"`
	ACSD    float64 `json:"acsd"`
	Class   string  `json:"class"`
	Labeled bool    `json:"labeled"`
}

// QueryResponse is the subset of the POST /v1/query answer the CLIs use.
type QueryResponse struct {
	Fairness      float64         `json:"fairness"`
	WalkOnlyShare float64         `json:"walk_only_share"`
	SPQs          int64           `json:"spqs"`
	ElapsedMS     int64           `json:"elapsed_ms"`
	Cache         CacheBlock      `json:"cache"`
	Zones         []ZoneRow       `json:"zones"`
	Degraded      json.RawMessage `json:"degraded,omitempty"`
	Stale         json.RawMessage `json:"stale,omitempty"`
}

// do issues one request against a /v1 path and decodes the 2xx answer
// into out (skipped when out is nil). Every non-2xx response — whatever
// the method or endpoint — comes back as *APIError, so callers have one
// error shape to switch on. A nil body sends no payload; any other value
// is marshalled as JSON.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	var payload io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = bytes.NewReader(b)
	}
	httpReq, err := http.NewRequestWithContext(ctx, method, c.Base+path, payload)
	if err != nil {
		return err
	}
	if body != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// Query posts one canonical request to /v1/query and decodes the answer.
// Non-2xx responses come back as *APIError.
func (c *Client) Query(ctx context.Context, req serve.Request) (*QueryResponse, error) {
	target := "/v1/query"
	if req.IncludeZones {
		target += "?include_zones=1"
	}
	var out QueryResponse
	if err := c.do(ctx, http.MethodPost, target, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CityInfo is one tenant row of GET /v1/cities.
type CityInfo struct {
	Name   string `json:"name"`
	Epoch  uint64 `json:"epoch"`
	Source string `json:"source"`
	Zones  int    `json:"zones"`
	Swaps  int64  `json:"swaps"`
}

// Cities lists the server's tenants and its default city.
func (c *Client) Cities(ctx context.Context) (def string, cities []CityInfo, err error) {
	var out struct {
		Default string     `json:"default"`
		Cities  []CityInfo `json:"cities"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/cities", nil, &out); err != nil {
		return "", nil, err
	}
	return out.Default, out.Cities, nil
}

// SnapshotInfo is one row of the /v1/cities/{name}/snapshots listing (and
// the body of a snapshot save/inspect response).
type SnapshotInfo struct {
	ID            string `json:"id"`
	Path          string `json:"path"`
	FormatVersion uint16 `json:"format_version"`
	SizeBytes     int64  `json:"size_bytes"`
	Checksum      string `json:"checksum"`
	MmapBytes     int64  `json:"mmap_resident_bytes"`
	City          string `json:"city"`
	Epoch         uint64 `json:"epoch"`
	CreatedUnix   int64  `json:"created_unix"`
	Active        bool   `json:"active"`
	Error         string `json:"error"`
}

// Snapshots lists the server's snapshot store for a city.
func (c *Client) Snapshots(ctx context.Context, city string) (dir string, snaps []SnapshotInfo, err error) {
	var out struct {
		Dir       string         `json:"dir"`
		Snapshots []SnapshotInfo `json:"snapshots"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/cities/"+city+"/snapshots", nil, &out); err != nil {
		return "", nil, err
	}
	return out.Dir, out.Snapshots, nil
}

// SaveSnapshot asks the server to save the city's current engine into its
// snapshot store; id may be empty for the server's default ({city}-e{epoch}).
func (c *Client) SaveSnapshot(ctx context.Context, city, id string) (*SnapshotInfo, error) {
	var out struct {
		Snapshot SnapshotInfo `json:"snapshot"`
	}
	body := map[string]string{}
	if id != "" {
		body["id"] = id
	}
	if err := c.do(ctx, http.MethodPost, "/v1/cities/"+city+"/snapshots", body, &out); err != nil {
		return nil, err
	}
	return &out.Snapshot, nil
}

// ActivateSnapshot hot-swaps the city onto a stored snapshot. The answer
// is the server's city body as raw JSON plus the retired epoch, if any.
func (c *Client) ActivateSnapshot(ctx context.Context, city, id string) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.do(ctx, http.MethodPost, "/v1/cities/"+city+"/snapshots/"+id+":activate", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SLOWindow is one evaluation window of a tenant's burn-rate report.
type SLOWindow struct {
	Window string  `json:"window"`
	Total  int64   `json:"total"`
	Errors int64   `json:"errors"`
	Slow   int64   `json:"slow"`
	Burn   float64 `json:"burn"`
}

// SLOTenant is one tenant row of GET /v1/slo.
type SLOTenant struct {
	City     string      `json:"city"`
	Windows  []SLOWindow `json:"windows"`
	FastBurn float64     `json:"fast_burn"`
	SlowBurn float64     `json:"slow_burn"`
}

// SLOReport is the GET /v1/slo answer.
type SLOReport struct {
	Enabled           bool        `json:"enabled"`
	BurnTripThreshold float64     `json:"burn_trip_threshold"`
	Tenants           []SLOTenant `json:"tenants"`
}

// SLO fetches the server's per-tenant burn-rate reports. Enabled is false
// when the server runs without -slo.
func (c *Client) SLO(ctx context.Context) (*SLOReport, error) {
	var out SLOReport
	if err := c.do(ctx, http.MethodGet, "/v1/slo", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// decodeError maps a non-2xx response onto *APIError, tolerating bodies
// that are not the JSON envelope.
func decodeError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode, Code: "internal"}
	var envelope struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil && envelope.Error.Code != "" {
		apiErr.Code = envelope.Error.Code
		apiErr.Message = envelope.Error.Message
		apiErr.Retryable = envelope.Error.Retryable
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	return apiErr
}
