package capture

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accessquery/internal/obs"
)

func testTrace() *obs.TraceSummary {
	tr := obs.NewTrace()
	obs.RecordSpan(obs.WithTrace(context.Background(), tr), "job", 50*time.Millisecond)
	return tr.Summary()
}

func TestTriggerStoresEvidence(t *testing.T) {
	s, err := NewStore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	id := s.Trigger(Info{
		JobIDs:      []string{"j00000001", "j00000002"},
		City:        "coventry",
		Fingerprint: "fp123",
		Reason:      ReasonSlowQuery,
		Threshold:   100 * time.Millisecond,
		Elapsed:     250 * time.Millisecond,
		Trace:       testTrace(),
	})
	if id == "" {
		t.Fatal("Trigger returned empty ID")
	}
	c, ok := s.ByJob("j00000002")
	if !ok {
		t.Fatal("capture not linked to job")
	}
	if c.ID != id || c.City != "coventry" || c.Reason != ReasonSlowQuery {
		t.Errorf("capture = %+v", c)
	}
	if c.TraceID == "" || c.Trace == nil {
		t.Error("capture lost its trace")
	}
	if c.NumGoroutines < 1 || !strings.Contains(c.Goroutines, "goroutine") {
		t.Errorf("goroutine dump missing: n=%d len=%d", c.NumGoroutines, len(c.Goroutines))
	}
	if c.ElapsedSeconds != 0.25 || c.ThresholdSeconds != 0.1 {
		t.Errorf("elapsed/threshold = %g/%g, want 0.25/0.1", c.ElapsedSeconds, c.ThresholdSeconds)
	}
	if first, ok := s.ByJob("j00000001"); !ok || first.ID != id {
		t.Error("capture not linked to its first job")
	}
	if _, ok := s.ByJob("j-unknown"); ok {
		t.Error("unknown job returned a capture")
	}
}

func TestEvictionByCount(t *testing.T) {
	s, err := NewStore(Config{MaxCaptures: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, s.Trigger(Info{JobIDs: []string{string(rune('a' + i))}, Reason: ReasonDeadline}))
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	if got := s.Evicted(); got != 3 {
		t.Errorf("Evicted = %d, want 3", got)
	}
	// Oldest evicted: its job link must be gone, newest retained.
	if _, ok := s.ByJob("a"); ok {
		t.Error("evicted capture still linked to its job")
	}
	if c, ok := s.ByJob("e"); !ok || c.ID != ids[4] {
		t.Error("newest capture missing")
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != ids[4] {
		t.Errorf("List = %v, want newest first", list)
	}
	if list[0].Goroutines != "" {
		t.Error("List must strip dump bodies")
	}
	if list[0].GoroutineBytes == 0 {
		t.Error("List must keep dump sizes")
	}
}

func TestEvictionByBytes(t *testing.T) {
	// Each goroutine dump is at least a few hundred bytes; a tiny byte
	// budget must evict down to the newest capture.
	s, err := NewStore(Config{MaxCaptures: 100})
	if err != nil {
		t.Fatal(err)
	}
	s.maxBytes = 1
	s.Trigger(Info{Reason: ReasonSlowQuery})
	s.Trigger(Info{Reason: ReasonSlowQuery})
	if got := s.Len(); got != 1 {
		t.Errorf("Len = %d under a 1-byte budget, want 1 (newest always kept)", got)
	}
	if got := s.Evicted(); got != 1 {
		t.Errorf("Evicted = %d, want 1", got)
	}
}

func TestDiskMirror(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Config{MaxCaptures: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id1 := s.Trigger(Info{Reason: ReasonSlowQuery, City: "a"})
	p1 := filepath.Join(dir, id1+".json")
	b, err := os.ReadFile(p1)
	if err != nil {
		t.Fatalf("capture not mirrored to disk: %v", err)
	}
	var c Capture
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("disk capture not JSON: %v", err)
	}
	if c.City != "a" {
		t.Errorf("disk capture city = %q", c.City)
	}
	// Evicting the capture unlinks its file.
	s.Trigger(Info{Reason: ReasonSlowQuery, City: "b"})
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Errorf("evicted capture file still on disk: %v", err)
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	if id := s.Trigger(Info{Reason: ReasonSlowQuery}); id != "" {
		t.Errorf("nil Trigger = %q", id)
	}
	if _, ok := s.ByJob("x"); ok {
		t.Error("nil ByJob ok")
	}
	if s.List() != nil || s.Len() != 0 || s.Evicted() != 0 {
		t.Error("nil store not inert")
	}
}

func TestHandler(t *testing.T) {
	s, err := NewStore(Config{MaxCaptures: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Trigger(Info{Reason: ReasonSlowQuery})
	s.Trigger(Info{Reason: ReasonDeadline})
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/captures", nil))
	var body struct {
		Stored   int       `json:"stored"`
		Evicted  int64     `json:"evicted"`
		Captures []Capture `json:"captures"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Stored != 1 || body.Evicted != 1 || len(body.Captures) != 1 {
		t.Errorf("handler body = stored %d evicted %d captures %d", body.Stored, body.Evicted, len(body.Captures))
	}
	if body.Captures[0].Reason != ReasonDeadline {
		t.Errorf("retained capture = %+v, want the newest", body.Captures[0])
	}
}
