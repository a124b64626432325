package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"accessquery/internal/fault"
	"accessquery/internal/features"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/isochrone"
	"accessquery/internal/router"
	"accessquery/internal/synth"
)

// Snapshot captures the expensive offline pre-processing of an engine —
// the walking isochrones and the transit-hop forest — together with the
// generating city configuration, so a server can restart without
// recomputing them. The city itself is regenerated deterministically from
// its config.
type Snapshot struct {
	CityConfig synth.Config
	Interval   gtfs.Interval
	Tau        float64
	Hops       int
	Isochrones *isochrone.Set
	Forest     *hoptree.Forest

	// Provenance: the city name and engine epoch that produced the
	// snapshot, and the save time.
	City        string
	Epoch       uint64
	CreatedUnix int64
}

// A snapshot file opens with the "AQSNAP" magic and a big-endian uint16
// format version at offset 6; the rest is the flat, mmap-able section
// layout documented in snapv2.go. The header exists so a registry asked to
// hot-swap a snapshot can refuse a truncated copy, a partial write, a file
// from another build's format, or a file that is not a snapshot at all with
// a precise SnapshotError instead of surfacing whatever confusing state a
// decoder happens to trip over — and keep the old epoch serving.
const snapshotMagic = "AQSNAP"

// unsupportedVersion is the rejection for a well-formed header carrying a
// format version this build does not read.
func unsupportedVersion(path string, version uint16) *SnapshotError {
	return &SnapshotError{Path: path, Reason: fmt.Sprintf("unsupported format version %d (this build reads only version %d; re-save the snapshot with a current build)", version, snapshotV2Version)}
}

// SnapshotError reports why a snapshot file was rejected before (or while)
// decoding: wrong magic, unsupported version, truncation, or a checksum
// mismatch. The registry treats any SnapshotError as "refuse the swap,
// keep the current epoch".
type SnapshotError struct {
	Path   string
	Reason string
	Err    error // underlying error, when one exists
}

func (e *SnapshotError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("core: snapshot %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("core: snapshot %s: %s", e.Path, e.Reason)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// SnapshotSource describes the snapshot file an engine was restored from
// (or that InspectSnapshot examined). MmapBytes is non-zero only when the
// numeric sections are being served straight out of a file mapping.
type SnapshotSource struct {
	Path        string `json:"path"`
	Version     uint16 `json:"format_version"`
	SizeBytes   int64  `json:"size_bytes"`
	Checksum    string `json:"checksum"`
	MmapBytes   int64  `json:"mmap_resident_bytes"`
	City        string `json:"city,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	CreatedUnix int64  `json:"created_unix,omitempty"`

	// mapping is the file mapping every slice in the restored engine's
	// forest and isochrone set aliases, shared by the engines derived from
	// it. It is unmapped when its last holder releases it.
	mapping *snapMapping
}

// SnapshotInfo returns the source snapshot this engine (or its base, for
// derived engines) was restored from, or nil for engines built from
// scratch.
func (e *Engine) SnapshotInfo() *SnapshotSource { return e.snapSrc }

// RetainSnapshot records one more holder of the snapshot mapping the
// engine's forest and isochrones alias (shared with the engines derived
// from it); it does nothing for an engine built from scratch. A registry
// retains it for each installed generation and for a scenario's pinned
// baseline. A mapping nobody retains stays mapped until the process
// exits.
func (e *Engine) RetainSnapshot() {
	if e.snapSrc != nil {
		e.snapSrc.mapping.holders.Add(1)
	}
}

// ReleaseSnapshot drops one holder RetainSnapshot recorded. When none
// remain the file is unmapped, and nothing may read the engine's forest or
// isochrones again. Releasing an engine nobody retained unmaps it at once,
// for a caller discarding a freshly loaded engine.
func (e *Engine) ReleaseSnapshot() {
	if e.snapSrc != nil && e.snapSrc.mapping.holders.Add(-1) <= 0 {
		e.snapSrc.mapping.close()
	}
}

// buildSnapshot assembles the in-memory Snapshot for this engine, stamping
// the provenance fields.
func (e *Engine) buildSnapshot(epoch uint64) *Snapshot {
	return &Snapshot{
		CityConfig:  e.City.Config,
		Interval:    e.Interval,
		Tau:         e.isos.Tau,
		Hops:        e.extractor.Hops,
		Isochrones:  e.isos,
		Forest:      e.forest,
		City:        e.City.Config.Name,
		Epoch:       epoch,
		CreatedUnix: time.Now().Unix(),
	}
}

// SaveSnapshot writes the engine's pre-processed structures to path in the
// current (v2) snapshot format.
func (e *Engine) SaveSnapshot(path string) error { return e.SaveSnapshotEpoch(path, 0) }

// SaveSnapshotEpoch is SaveSnapshot with the producing engine epoch
// recorded in the snapshot's meta section, for servers that know it.
func (e *Engine) SaveSnapshotEpoch(path string, epoch uint64) error {
	sections, err := buildSnapshotSectionsV2(e.buildSnapshot(epoch))
	if err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	image, err := encodeSnapshotV2(sections)
	if err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	// Never rewrite path in place: an engine loaded from it maps the file
	// MAP_SHARED and aliases its bytes. The image goes to a temporary file
	// in the same directory, is synced, and is renamed over path, so a
	// mapping of the old file keeps its inode and contents.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := writeSynced(tmp, image); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// writeSynced writes data to f, makes it readable by all (os.CreateTemp
// creates 0600), flushes it to stable storage, and closes f.
func writeSynced(f *os.File, data []byte) error {
	_, err := f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSnapshot reads and verifies a snapshot file. Every rejection is a
// *SnapshotError naming the precise reason. The returned source carries the
// mapping keep-alive.
func readSnapshot(path string) (*Snapshot, *SnapshotSource, error) {
	m, err := mapSnapshot(path)
	if err != nil {
		return nil, nil, &SnapshotError{Path: path, Reason: "unreadable", Err: err}
	}
	raw := m.data
	snap, checksum, err := decodeSnapshot(path, raw)
	if err != nil {
		m.close()
		return nil, nil, err
	}
	src := &SnapshotSource{
		Path:        path,
		Version:     snapshotV2Version,
		SizeBytes:   int64(len(raw)),
		Checksum:    checksum,
		MmapBytes:   m.residentBytes(),
		City:        snap.City,
		Epoch:       snap.Epoch,
		CreatedUnix: snap.CreatedUnix,
		mapping:     m,
	}
	return snap, src, nil
}

// decodeSnapshot verifies a snapshot file image — its table, then every
// section's checksum — and rebuilds the Snapshot over it, returning the
// file's checksum too. The sections are subslices of raw (no copies).
// Every rejection is a *SnapshotError; no image, however damaged, makes it
// panic (FuzzSnapshotV2).
func decodeSnapshot(path string, raw []byte) (*Snapshot, string, error) {
	entries, checksum, err := readSnapshotTable(path, bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, "", err
	}
	sections := make(map[string][]byte, len(entries))
	for _, e := range entries {
		payload := raw[e.off : e.off+e.length]
		if err := e.verify(path, payload); err != nil {
			return nil, "", err
		}
		sections[e.name] = payload
	}
	snap, err := snapshotFromSections(path, sections)
	if err != nil {
		return nil, "", err
	}
	return snap, checksum, nil
}

// InspectSnapshot reads just enough of a snapshot file to describe it —
// header, section table, and the small meta section — without
// decoding or mapping the numeric payloads. Listing a directory of
// snapshots stays cheap regardless of their size. It checks the table as
// LoadEngine does, but only meta's checksum.
func InspectSnapshot(path string) (*SnapshotSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &SnapshotError{Path: path, Reason: "unreadable", Err: err}
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, &SnapshotError{Path: path, Reason: "unreadable", Err: err}
	}
	return inspectSnapshot(path, f, st.Size())
}

// inspectSnapshot is InspectSnapshot over r, a file of size bytes.
func inspectSnapshot(path string, r io.ReaderAt, size int64) (*SnapshotSource, error) {
	entries, checksum, err := readSnapshotTable(path, r, size)
	if err != nil {
		return nil, err
	}
	i := slices.IndexFunc(entries, func(e snapEntry) bool { return e.name == "meta" })
	if i < 0 {
		return nil, &SnapshotError{Path: path, Reason: `missing section "meta"`}
	}
	e := entries[i]
	if e.length > 1<<24 {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("implausible meta section of %d bytes", e.length)}
	}
	metaRaw := make([]byte, e.length)
	if _, err := r.ReadAt(metaRaw, int64(e.off)); err != nil {
		return nil, &SnapshotError{Path: path, Reason: "unreadable", Err: err}
	}
	if err := e.verify(path, metaRaw); err != nil {
		return nil, err
	}
	meta, err := decodeMeta(path, metaRaw)
	if err != nil {
		return nil, err
	}
	return &SnapshotSource{
		Path:        path,
		Version:     snapshotV2Version,
		SizeBytes:   size,
		Checksum:    checksum,
		City:        meta.City,
		Epoch:       meta.Epoch,
		CreatedUnix: meta.CreatedUnix,
	}, nil
}

// LoadEngine restores an engine from a snapshot: the header and checksums
// are verified (see SnapshotError), the city is regenerated from its
// recorded configuration (deterministic in the seed), and the pre-computed
// structures are installed without recomputation. The numeric sections are
// mmap'd and served in place — pages fault in lazily — instead of being
// decoded onto the heap.
func LoadEngine(path string) (_ *Engine, err error) {
	// Chaos-test injection site for snapshot load failures.
	if err := fault.Check(fault.SiteSnapshot); err != nil {
		return nil, fmt.Errorf("core: loading snapshot: %w", err)
	}
	snap, src, err := readSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			src.mapping.close()
		}
	}()
	start := time.Now()
	city, err := synth.Generate(snap.CityConfig)
	if err != nil {
		return nil, fmt.Errorf("core: regenerating city: %w", err)
	}
	if snap.Forest == nil || snap.Isochrones == nil {
		return nil, &SnapshotError{Path: path, Reason: "missing forest or isochrones"}
	}
	if snap.Forest.Zones() != len(city.Zones) || len(snap.Isochrones.Isochrones) != len(city.Zones) {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("does not match regenerated city (%d zones)", len(city.Zones))}
	}
	pts := zonePointsOf(city)
	extractor, err := features.NewExtractor(snap.Forest, pts, snap.Isochrones, snap.Hops)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ix := gtfs.NewIndex(city.Feed, snap.Interval.Day)
	rt, err := router.New(city.Road, ix, city.StopNode, router.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	zoneTree, roadTree := buildSpatialIndexes(city, pts)
	eng := &Engine{
		City:      city,
		Interval:  snap.Interval,
		zonePts:   pts,
		isos:      snap.Isochrones,
		forest:    snap.Forest,
		extractor: extractor,
		router:    rt,
		zoneTree:  zoneTree,
		roadTree:  roadTree,
		snapSrc:   src,
		// A snapshot stores no knob; restored engines run queries serially
		// unless the query sets its own Parallelism.
		parallelism:  1,
		PrepDuration: time.Since(start),
	}
	return eng, nil
}
