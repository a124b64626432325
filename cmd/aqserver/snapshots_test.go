package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"accessquery/internal/serve"
)

// snapshotListBody mirrors the GET snapshots response for tests.
type snapshotListBody struct {
	City      string `json:"city"`
	Dir       string `json:"dir"`
	Snapshots []struct {
		ID            string `json:"id"`
		FormatVersion uint16 `json:"format_version"`
		SizeBytes     int64  `json:"size_bytes"`
		Checksum      string `json:"checksum"`
		MmapBytes     int64  `json:"mmap_resident_bytes"`
		Epoch         uint64 `json:"epoch"`
		Active        bool   `json:"active"`
		Error         string `json:"error"`
	} `json:"snapshots"`
}

func listSnapshots(t *testing.T, s *server, city string) snapshotListBody {
	t.Helper()
	rec := do(s, http.MethodGet, "/v1/cities/"+city+"/snapshots", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list status %d: %s", rec.Code, rec.Body.String())
	}
	var body snapshotListBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSnapshotsAPI drives the full snapshot-store lifecycle over the mux:
// empty list, save (default and explicit id), inspect, activate as the
// new swap verb, active-row marking, and the 422 refusal for a corrupt
// file that must leave the serving epoch untouched.
func TestSnapshotsAPI(t *testing.T) {
	s, _ := multiCityServer(t, serve.Config{Workers: 1})
	s.snapDir = t.TempDir()

	if body := listSnapshots(t, s, "coventry"); len(body.Snapshots) != 0 || body.Dir != s.snapDir {
		t.Fatalf("empty store listing = %+v", body)
	}

	// Save under the default id: {city}-e{epoch}, epoch 1 at open.
	rec := do(s, http.MethodPost, "/v1/cities/coventry/snapshots", "{}")
	if rec.Code != http.StatusCreated {
		t.Fatalf("save status %d: %s", rec.Code, rec.Body.String())
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/cities/coventry/snapshots/coventry-e1" {
		t.Errorf("save Location = %q", loc)
	}
	var saved struct {
		Snapshot struct {
			ID            string `json:"id"`
			FormatVersion uint16 `json:"format_version"`
			Epoch         uint64 `json:"epoch"`
			City          string `json:"city"`
		} `json:"snapshot"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	// City is the generated city's own name (e.g. "Coventry-x0.05"), the
	// tenant name only keys the URL.
	if saved.Snapshot.ID != "coventry-e1" || saved.Snapshot.FormatVersion != 2 ||
		saved.Snapshot.Epoch != 1 || saved.Snapshot.City == "" {
		t.Fatalf("save body = %+v, want v2 coventry-e1 from epoch 1", saved.Snapshot)
	}

	// Save under an explicit id.
	rec = do(s, http.MethodPost, "/v1/cities/coventry/snapshots", `{"id":"pinned"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("explicit save status %d: %s", rec.Code, rec.Body.String())
	}

	body := listSnapshots(t, s, "coventry")
	if len(body.Snapshots) != 2 || body.Snapshots[0].ID != "coventry-e1" || body.Snapshots[1].ID != "pinned" {
		t.Fatalf("listing = %+v, want sorted [coventry-e1 pinned]", body.Snapshots)
	}
	for _, row := range body.Snapshots {
		if row.FormatVersion != 2 || row.SizeBytes == 0 || row.Checksum == "" || row.Error != "" {
			t.Errorf("row %+v, want clean v2 metadata", row)
		}
		// The store holds re-encoded saves; the tenant still serves the
		// registry's original file, so nothing is active yet.
		if row.Active {
			t.Errorf("row %s unexpectedly active", row.ID)
		}
	}

	// Item inspection, and 404 for an id the store does not hold.
	rec = do(s, http.MethodGet, "/v1/cities/coventry/snapshots/pinned", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("item status %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(s, http.MethodGet, "/v1/cities/coventry/snapshots/ghost", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing item status %d", rec.Code)
	}
	if env := decodeError(t, rec); env.Error.Code != codeNotFound {
		t.Errorf("missing item code %q", env.Error.Code)
	}

	// Path-escape attempts die on id validation.
	rec = do(s, http.MethodGet, "/v1/cities/coventry/snapshots/..%2Fevil", "")
	if rec.Code != http.StatusBadRequest && rec.Code != http.StatusNotFound {
		t.Fatalf("escape attempt status %d, want 400 or 404", rec.Code)
	}

	// Activate: the hot-swap verb.
	rec = do(s, http.MethodPost, "/v1/cities/coventry/snapshots/pinned:activate", "")
	if rec.Code != http.StatusCreated {
		t.Fatalf("activate status %d: %s", rec.Code, rec.Body.String())
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/cities/coventry" {
		t.Errorf("activate Location = %q", loc)
	}
	var act struct {
		City struct {
			Epoch uint64 `json:"epoch"`
		} `json:"city"`
		RetiredEpoch uint64 `json:"retired_epoch"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&act); err != nil {
		t.Fatal(err)
	}
	if act.City.Epoch != 2 || act.RetiredEpoch != 1 {
		t.Fatalf("activate = %+v, want epoch 2 retiring 1", act)
	}

	// The serving engine now comes from the store, so the listing marks it.
	body = listSnapshots(t, s, "coventry")
	activeID := ""
	for _, row := range body.Snapshots {
		if row.Active {
			activeID = row.ID
		}
	}
	if activeID != "pinned" {
		t.Fatalf("active row = %q, want pinned (%+v)", activeID, body.Snapshots)
	}

	// A corrupt file is listed with its reason and refused on activation
	// with 422 — and the current epoch keeps serving.
	if err := os.WriteFile(filepath.Join(s.snapDir, "broken.snap"), []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	body = listSnapshots(t, s, "coventry")
	found := false
	for _, row := range body.Snapshots {
		if row.ID == "broken" {
			found = true
			if row.Error == "" {
				t.Error("broken row has no error reason")
			}
		}
	}
	if !found {
		t.Fatal("broken.snap missing from listing")
	}
	rec = do(s, http.MethodPost, "/v1/cities/coventry/snapshots/broken:activate", "")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("broken activate status %d: %s", rec.Code, rec.Body.String())
	}
	if env := decodeError(t, rec); env.Error.Code != codeBadSnapshot {
		t.Errorf("broken activate code %q", env.Error.Code)
	}
	rec = do(s, http.MethodGet, "/v1/cities/coventry", "")
	var city struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&city); err != nil {
		t.Fatal(err)
	}
	if city.Epoch != 2 {
		t.Fatalf("epoch after refused activation = %d, want 2", city.Epoch)
	}
}
