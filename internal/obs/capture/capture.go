// Package capture is the serving layer's automatic flight recorder for
// degraded queries. When a query crosses the slow-query threshold or
// exhausts its deadline, the manager triggers a capture: the run's full
// span tree and a goroutine dump taken at the moment of the trigger.
// Captures land in a bounded in-memory store — optionally mirrored to
// disk — linked to the jobs they answered, so a production slowdown is
// diagnosable from GET /v1/jobs/{id}/profile without reproducing it. A CPU
// profile is taken on demand from /debug/pprof/profile on the same debug
// listener.
//
// The store is bounded in both count and bytes; old captures are evicted
// oldest-first and evictions are counted (aq_capture_evicted_total), so
// truncated evidence is visible rather than silent. A nil *Store disables
// capture entirely; every method is nil-safe.
package capture

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"accessquery/internal/obs"
)

// Reason says why a capture was triggered.
type Reason string

const (
	// ReasonSlowQuery marks a run that crossed the -slow-query threshold.
	ReasonSlowQuery Reason = "slow_query"
	// ReasonDeadline marks a run that exhausted its deadline.
	ReasonDeadline Reason = "deadline"
)

// The byte bounds: retained goroutine dumps total at most maxBytes, and
// one dump is cut at goroutineLimit.
const (
	maxBytes       = 8 << 20
	goroutineLimit = 256 << 10
)

// Config sizes a Store. Zero values select the defaults noted.
type Config struct {
	// MaxCaptures bounds retained captures; default 32.
	MaxCaptures int
	// Dir, when non-empty, mirrors each capture to <Dir>/<id>.json so
	// evidence survives the process. Evicted captures are unlinked.
	Dir string

	now func() time.Time
}

// Info is the evidence the serving layer hands to Trigger.
type Info struct {
	JobIDs      []string
	City        string
	Fingerprint string
	Reason      Reason
	Threshold   time.Duration
	Elapsed     time.Duration
	Err         error
	Trace       *obs.TraceSummary
}

// Capture is one stored slow-query record, JSON-ready.
type Capture struct {
	ID               string            `json:"id"`
	Captured         time.Time         `json:"captured"`
	Reason           Reason            `json:"reason"`
	City             string            `json:"city,omitempty"`
	JobIDs           []string          `json:"job_ids,omitempty"`
	Fingerprint      string            `json:"fingerprint,omitempty"`
	TraceID          string            `json:"trace_id,omitempty"`
	ElapsedSeconds   float64           `json:"elapsed_seconds"`
	ThresholdSeconds float64           `json:"threshold_seconds,omitempty"`
	Error            string            `json:"error,omitempty"`
	NumGoroutines    int               `json:"num_goroutines"`
	GoroutineBytes   int               `json:"goroutine_bytes"`
	Goroutines       string            `json:"goroutines,omitempty"`
	Trace            *obs.TraceSummary `json:"trace,omitempty"`
}

// stripped returns a listing-weight copy: sizes retained, bodies dropped.
func (c *Capture) stripped() Capture {
	out := *c
	out.Goroutines = ""
	out.Trace = nil
	return out
}

// Store holds recent captures. Create with NewStore; nil disables.
type Store struct {
	cfg      Config
	maxBytes int64 // the maxBytes bound; tests lower it

	mu      sync.Mutex
	caps    []*Capture // oldest first
	byJob   map[string]*Capture
	seq     int64
	bytes   int64
	evicted int64
}

var (
	mCaptured = obs.Counter("aq_capture_total")
	mEvicted  = obs.Counter("aq_capture_evicted_total")
)

func init() {
	obs.Default.SetHelp("aq_capture_total", "Slow-query captures taken (threshold crossings and deadline exhaustions).")
	obs.Default.SetHelp("aq_capture_evicted_total", "Captures evicted from the bounded store (evidence lost to the retention bound).")
}

// NewStore returns a store sized by cfg. The capture directory, when
// configured, is created eagerly so a bad path fails at boot, not at the
// first slow query.
func NewStore(cfg Config) (*Store, error) {
	if cfg.MaxCaptures <= 0 {
		cfg.MaxCaptures = 32
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
	}
	return &Store{cfg: cfg, maxBytes: maxBytes, byJob: make(map[string]*Capture)}, nil
}

// Trigger records one capture and returns its ID ("" on a nil store). The
// goroutine dump is taken synchronously: the point is the state at the
// moment of the trigger.
func (s *Store) Trigger(info Info) string {
	if s == nil {
		return ""
	}
	buf := make([]byte, goroutineLimit)
	n := runtime.Stack(buf, true)
	c := &Capture{
		Captured:         s.cfg.now(),
		Reason:           info.Reason,
		City:             info.City,
		JobIDs:           append([]string(nil), info.JobIDs...),
		Fingerprint:      info.Fingerprint,
		ElapsedSeconds:   info.Elapsed.Seconds(),
		ThresholdSeconds: info.Threshold.Seconds(),
		NumGoroutines:    runtime.NumGoroutine(),
		GoroutineBytes:   n,
		Goroutines:       string(buf[:n]),
		Trace:            info.Trace,
	}
	if info.Err != nil {
		c.Error = info.Err.Error()
	}
	if info.Trace != nil {
		c.TraceID = info.Trace.TraceID
	}

	s.mu.Lock()
	s.seq++
	c.ID = fmt.Sprintf("c%06d", s.seq)
	s.caps = append(s.caps, c)
	s.bytes += int64(len(c.Goroutines))
	for _, id := range c.JobIDs {
		s.byJob[id] = c
	}
	s.evictLocked()
	s.persistLocked(c)
	s.mu.Unlock()
	mCaptured.Inc()

	return c.ID
}

// evictLocked enforces the count and byte bounds, oldest first. The byte
// bound never evicts the last capture: one oversized dump beats an empty
// store. Callers hold s.mu.
func (s *Store) evictLocked() {
	for len(s.caps) > s.cfg.MaxCaptures || (len(s.caps) > 1 && s.bytes > s.maxBytes) {
		old := s.caps[0]
		s.caps = s.caps[1:]
		s.bytes -= int64(len(old.Goroutines))
		for _, id := range old.JobIDs {
			if s.byJob[id] == old {
				delete(s.byJob, id)
			}
		}
		if s.cfg.Dir != "" {
			_ = os.Remove(filepath.Join(s.cfg.Dir, old.ID+".json"))
		}
		s.evicted++
		mEvicted.Inc()
	}
}

// persistLocked mirrors c to the capture directory, best-effort. Callers
// hold s.mu.
func (s *Store) persistLocked(c *Capture) {
	if s.cfg.Dir == "" {
		return
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(s.cfg.Dir, c.ID+".json"), b, 0o644)
}

// ByJob returns the capture linked to job id, if any. The returned value
// is a copy; its slices and trace are shared but never mutated after
// storage.
func (s *Store) ByJob(id string) (Capture, bool) {
	if s == nil {
		return Capture{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byJob[id]
	if !ok {
		return Capture{}, false
	}
	return *c, true
}

// List returns listing-weight copies (no dump bodies), newest first.
func (s *Store) List() []Capture {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Capture, 0, len(s.caps))
	for i := len(s.caps) - 1; i >= 0; i-- {
		out = append(out, s.caps[i].stripped())
	}
	return out
}

// Len reports how many captures are retained; Evicted how many were lost
// to the bounds.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.caps)
}

// Evicted reports how many captures this store has evicted.
func (s *Store) Evicted() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Handler serves the store as JSON: a header (stored/evicted counts) plus
// the listing, newest first — the /debug/captures page.
func Handler(s *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		body := struct {
			Stored   int       `json:"stored"`
			Evicted  int64     `json:"evicted"`
			Captures []Capture `json:"captures"`
		}{Stored: s.Len(), Evicted: s.Evicted(), Captures: s.List()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}
