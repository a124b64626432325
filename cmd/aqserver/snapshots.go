// The /v1/cities/{name}/snapshots resource: a first-class API over the
// server's snapshot store (-snapshot-dir). Activation runs a registry swap:
// a snapshot that fails verification is refused with 422 bad_snapshot and
// never unseats the serving epoch.
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

// listSnapshots serves GET /v1/cities/{name}/snapshots: every *.snap in
// the store with its format version, size, checksum, provenance, and mmap
// residency.
func (s *server) listSnapshots(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	entries, err := os.ReadDir(s.snapDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		writeError(w, http.StatusInternalServerError, codeInternal,
			fmt.Sprintf("reading snapshot dir %s: %v", s.snapDir, err))
		return
	}
	live := tn.Engine().SnapshotInfo()
	rows := make([]snapshotRow, 0, len(entries))
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".snap") {
			continue
		}
		row := snapshotRow{ID: strings.TrimSuffix(ent.Name(), ".snap")}
		info, err := core.InspectSnapshot(filepath.Join(s.snapDir, ent.Name()))
		if err != nil {
			// Surface unloadable files instead of hiding them: the
			// operator listing the store is exactly who needs to know a
			// snapshot is truncated or foreign.
			var serr *core.SnapshotError
			row.Error = err.Error()
			if errors.As(err, &serr) {
				row.Error = serr.Reason
			}
		} else {
			row.setSource(info, live)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"city":      tn.Name,
		"dir":       s.snapDir,
		"snapshots": rows,
	})
}

// saveSnapshot serves POST /v1/cities/{name}/snapshots: it saves the
// tenant's current engine as a new v2 snapshot (201 + Location).
func (s *server) saveSnapshot(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	var body struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
		return
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
}

// getSnapshot serves GET /v1/cities/{name}/snapshots/{id}: one stored
// snapshot's inspection info.
func (s *server) getSnapshot(w http.ResponseWriter, r *http.Request) {
	tn, id, ok := s.snapshotItem(w, r, "")
	if !ok {
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
	row := snapshotRow{ID: id}
	row.setSource(info, tn.Engine().SnapshotInfo())
	writeJSON(w, http.StatusOK, map[string]interface{}{"city": tn.Name, "snapshot": row})
}

// activateSnapshot serves POST /v1/cities/{name}/snapshots/{id}:activate:
// it hot-swaps the tenant onto the stored snapshot, refusing with 422
// bad_snapshot (and keeping the current epoch serving) when the file fails
// verification.
func (s *server) activateSnapshot(w http.ResponseWriter, r *http.Request) {
	tn, id, ok := s.snapshotItem(w, r, ":activate")
	if !ok {
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
}

// snapshotItem resolves /v1/cities/{name}/snapshots/{id} to its tenant and
// store id. A mux wildcard is a whole segment, so the {id} segment also
// carries the operation's verb (":activate", or "" for none); a verb the
// method does not take is answered 405 like a method the path does not
// take. An unknown tenant is 404 and a malformed id 400.
func (s *server) snapshotItem(w http.ResponseWriter, r *http.Request, verb string) (*registry.Tenant, string, bool) {
	seg := r.PathValue("id")
	id, _, _ := strings.Cut(seg, ":")
	if seg != id+verb {
		methodNotAllowed(w, "/v1/cities/{name}/snapshots/{id}")
		return nil, "", false
	}
	tn, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return nil, "", false
	}
	if !validSnapshotID(id) {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("bad snapshot id %q: want letters, digits, '-', '_', '.' only", id))
		return nil, "", false
	}
	return tn, id, true
}

// setSource fills the row from a stored file's inspection info, marking it
// active when it is the file the tenant serves: residency then belongs to
// the serving mapping, not the file on disk.
func (row *snapshotRow) setSource(info, live *core.SnapshotSource) {
	row.SnapshotSource = info
	if live != nil && live.Checksum == info.Checksum {
		row.Active = true
		info.MmapBytes = live.MmapBytes
	}
}
