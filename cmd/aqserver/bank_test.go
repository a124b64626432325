package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accessquery/internal/bank"
	"accessquery/internal/registry"
	"accessquery/internal/serve"
)

// bankedServer wires a private one-tenant registry and a fresh label bank
// the way main does: the registry owns segment lifecycle, the runner
// attaches the acquired epoch's segment to every run.
func bankedServer(t *testing.T) (*server, *bank.Bank) {
	t.Helper()
	e := sharedEngine(t)
	dir, err := os.MkdirTemp(t.TempDir(), "banked-*")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "coventry.snap")
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	b := bank.New(bank.Config{})
	reg, err := registry.Open(
		[]registry.TenantSpec{{Name: "coventry", Path: path}},
		registry.Options{Bank: b})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(reg, serve.Config{Workers: 2}, serve.RunnerConfig{Bank: b})
	t.Cleanup(func() { s.mgr.Shutdown(t.Context()) })
	return s, b
}

// TestBankMetricsAndStats drives two overlapping queries through a
// bank-enabled server and checks both surfaces: /v1/metrics exposes the
// aq_bank_* series in valid Prometheus text format, and /v1/stats reports
// the bank block with per-tenant segments.
func TestBankMetricsAndStats(t *testing.T) {
	s, b := bankedServer(t)
	// Same seed, growing budget: random sampling draws labeled sets as
	// prefixes of one seeded permutation, so the second query's trips are
	// a superset of the first's — the drain is guaranteed, and the two
	// bodies fingerprint differently so both reach the engine.
	for _, body := range []string{
		`{"category": "school", "budget": 0.15, "model": "OLS", "seed": 7}`,
		`{"category": "school", "budget": 0.3, "model": "OLS", "seed": 7}`,
	} {
		if rec := postQuery(s, "/v1/query", body); rec.Code != http.StatusOK {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
		}
	}
	bst := b.Stats()
	if bst.Deposits == 0 || bst.Hits == 0 || bst.Entries == 0 {
		t.Fatalf("bank saw no traffic: %+v", bst)
	}

	rec := do(s, http.MethodGet, "/v1/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"aq_bank_hits_total",
		"aq_bank_misses_total",
		"aq_bank_deposits_total",
		"aq_bank_entries",
		"aq_bank_segments",
		"# HELP aq_bank_hits_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, "aq_bank_") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	rec = do(s, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st struct {
		Bank *struct {
			Capacity int64 `json:"capacity"`
			Entries  int64 `json:"entries"`
			Hits     int64 `json:"hits"`
			Deposits int64 `json:"deposits"`
			Segments []struct {
				City    string `json:"city"`
				Epoch   uint64 `json:"epoch"`
				Entries int64  `json:"entries"`
			} `json:"segments"`
		} `json:"bank"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Bank == nil {
		t.Fatal("/v1/stats has no bank block on a bank-enabled server")
	}
	if st.Bank.Entries == 0 || st.Bank.Hits == 0 || st.Bank.Deposits == 0 {
		t.Errorf("stats bank block empty: %+v", st.Bank)
	}
	if len(st.Bank.Segments) != 1 || st.Bank.Segments[0].City != "coventry" ||
		st.Bank.Segments[0].Entries == 0 {
		t.Errorf("per-tenant segments = %+v", st.Bank.Segments)
	}
}

// TestStatsNoBankBlockWhenDisabled: a server without a bank must not grow
// a bank block (clients key feature detection off its presence).
func TestStatsNoBankBlockWhenDisabled(t *testing.T) {
	s := testServer(t)
	rec := do(s, http.MethodGet, "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st map[string]json.RawMessage
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st["bank"]; ok {
		t.Error("bank block present on a bank-disabled server")
	}
}

// TestBankSwapRetiresStatsSegments: after a hot-swap the segment list
// names only the new epoch — the stats surface is how operators verify
// the zero-stale-prices invariant in production.
func TestBankSwapRetiresStatsSegments(t *testing.T) {
	s, b := bankedServer(t)
	body := `{"category": "school", "budget": 0.15, "model": "OLS", "seed": 7}`
	if rec := postQuery(s, "/v1/query", body); rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	if b.Stats().Entries == 0 {
		t.Fatal("warm query deposited nothing")
	}
	s.snapDir = t.TempDir()
	if rec := do(s, http.MethodPost, "/v1/cities/coventry/snapshots", `{"id": "next"}`); rec.Code != http.StatusCreated {
		t.Fatalf("save status %d: %s", rec.Code, rec.Body.String())
	}
	rec := do(s, http.MethodPost, "/v1/cities/coventry/snapshots/next:activate", "")
	if rec.Code != http.StatusCreated {
		t.Fatalf("swap status %d: %s", rec.Code, rec.Body.String())
	}
	st := b.Stats()
	if st.Entries != 0 {
		t.Errorf("swap left %d live entries, want 0", st.Entries)
	}
	tn, _ := s.reg.Get("coventry")
	for _, seg := range st.Segments {
		if seg.Epoch < tn.Epoch() {
			t.Errorf("stale segment %+v attached after swap", seg)
		}
	}
}
