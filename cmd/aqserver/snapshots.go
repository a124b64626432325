// The /v1/cities/{name}/snapshots resource: a first-class API over the
// server's snapshot store (-snapshot-dir).
//
//	GET  /v1/cities/{name}/snapshots                → list loadable snapshots
//	POST /v1/cities/{name}/snapshots                → save the current engine (v2 format)
//	POST /v1/cities/{name}/snapshots/{id}:activate  → hot-swap the tenant onto a snapshot
//
// Activation runs a registry swap: a snapshot that fails verification is
// refused with 422 bad_snapshot and never unseats the serving epoch.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"accessquery/internal/core"
	"accessquery/internal/registry"
)

// snapshotRow is one entry of the snapshots listing: the inspection info
// plus the store id and whether the tenant currently serves this file.
type snapshotRow struct {
	ID string `json:"id"`
	*core.SnapshotSource
	Active bool   `json:"active,omitempty"`
	Error  string `json:"error,omitempty"`
}

// validSnapshotID accepts simple file-stem ids: no separators, no dot
// prefixes, nothing that could escape the snapshot directory.
func validSnapshotID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return !strings.Contains(id, "..")
}

func (s *server) snapshotPath(id string) string {
	return filepath.Join(s.snapDir, id+".snap")
}

// handleSnapshots serves the snapshots collection: GET lists every *.snap
// in the store with its format version, size, checksum, provenance, and
// mmap residency; POST saves the tenant's current engine as a new v2
// snapshot (201 + Location).
func (s *server) handleSnapshots(w http.ResponseWriter, r *http.Request, tn *registry.Tenant) {
	switch r.Method {
	case http.MethodGet:
		entries, err := os.ReadDir(s.snapDir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			writeError(w, http.StatusInternalServerError, codeInternal,
				fmt.Sprintf("reading snapshot dir %s: %v", s.snapDir, err))
			return
		}
		engine, _, release := tn.Acquire()
		live := engine.SnapshotInfo()
		release()
		rows := make([]snapshotRow, 0, len(entries))
		for _, ent := range entries {
			if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".snap") {
				continue
			}
			id := strings.TrimSuffix(ent.Name(), ".snap")
			row := snapshotRow{ID: id}
			info, err := core.InspectSnapshot(filepath.Join(s.snapDir, ent.Name()))
			if err != nil {
				// Surface unloadable files instead of hiding them: the
				// operator listing the store is exactly who needs to know
				// a snapshot is truncated or foreign.
				var serr *core.SnapshotError
				if errors.As(err, &serr) {
					row.Error = serr.Reason
				} else {
					row.Error = err.Error()
				}
			} else {
				row.SnapshotSource = info
				if live != nil && live.Checksum == info.Checksum {
					row.Active = true
					// Residency belongs to the serving mapping, not the
					// file on disk.
					info.MmapBytes = live.MmapBytes
				}
			}
			rows = append(rows, row)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"city":      tn.Name,
			"dir":       s.snapDir,
			"snapshots": rows,
		})
	case http.MethodPost:
		var body struct {
			ID string `json:"id"`
		}
		if r.Body != nil {
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
				writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
				return
			}
		}
		engine, epoch, release := tn.Acquire()
		defer release()
		id := body.ID
		if id == "" {
			id = fmt.Sprintf("%s-e%d", tn.Name, epoch)
		}
		if !validSnapshotID(id) {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("bad snapshot id %q: want letters, digits, '-', '_', '.' only", id))
			return
		}
		if err := os.MkdirAll(s.snapDir, 0o755); err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		path := s.snapshotPath(id)
		if err := engine.SaveSnapshotEpoch(path, epoch); err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		info, err := core.InspectSnapshot(path)
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		w.Header().Set("Location", "/v1/cities/"+tn.Name+"/snapshots/"+id)
		writeJSON(w, http.StatusCreated, map[string]interface{}{
			"city":     tn.Name,
			"snapshot": snapshotRow{ID: id, SnapshotSource: info},
		})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET, POST only")
	}
}

// handleSnapshotItem dispatches /v1/cities/{name}/snapshots/{id}[:op].
// The only operation is :activate — POST hot-swaps the tenant onto the
// stored snapshot, refusing with 422 bad_snapshot (and keeping the
// current epoch serving) when the file fails verification.
func (s *server) handleSnapshotItem(w http.ResponseWriter, r *http.Request, tn *registry.Tenant, idOp string) {
	id, op, hasOp := strings.Cut(idOp, ":")
	if !validSnapshotID(id) {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("bad snapshot id %q: want letters, digits, '-', '_', '.' only", id))
		return
	}
	switch {
	case hasOp && op == "activate":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
			return
		}
		info, retired, err := tn.SwapSnapshot(s.snapshotPath(id))
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, codeBadSnapshot, err.Error())
			return
		}
		out := map[string]interface{}{"city": s.cityBody(info)}
		if retired != nil {
			out["retired_epoch"] = retired.Epoch
		}
		w.Header().Set("Location", "/v1/cities/"+tn.Name)
		writeJSON(w, http.StatusCreated, out)
	case !hasOp:
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
			return
		}
		info, err := core.InspectSnapshot(s.snapshotPath(id))
		if err != nil {
			var serr *core.SnapshotError
			if errors.As(err, &serr) && errors.Is(serr.Err, os.ErrNotExist) {
				writeError(w, http.StatusNotFound, codeNotFound,
					fmt.Sprintf("no snapshot %q in %s", id, s.snapDir))
				return
			}
			writeError(w, http.StatusUnprocessableEntity, codeBadSnapshot, err.Error())
			return
		}
		engine, _, release := tn.Acquire()
		live := engine.SnapshotInfo()
		release()
		row := snapshotRow{ID: id, SnapshotSource: info}
		if live != nil && live.Checksum == info.Checksum {
			row.Active = true
			info.MmapBytes = live.MmapBytes
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"city": tn.Name, "snapshot": row})
	default:
		writeError(w, http.StatusNotFound, codeNotFound,
			fmt.Sprintf("no operation %q on /v1/cities/{name}/snapshots/{id}; want :activate", op))
	}
}
