package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"unsafe"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/isochrone"
	"accessquery/internal/synth"
)

// Snapshot format v2 is a flat, section-table layout designed so the large
// numeric structures — isochrone node arrays, hull rings, and hop-tree leaf
// stores — land on disk exactly as they sit in memory and can be mapped
// back in with mmap instead of gob-decoded:
//
//	offset  size  field
//	0       6     magic "AQSNAP"
//	6       2     format version, big-endian uint16 (= 2)
//	8       4     section count, big-endian uint32
//	12      4     flags, big-endian uint32 (bit 0: payload is little-endian)
//	16      64×n  section table entries
//
// Each 64-byte table entry is:
//
//	offset  size  field
//	0       16    section name, NUL-padded
//	16      8     absolute file offset, big-endian uint64 (64-byte aligned)
//	24      8     section length in bytes, big-endian uint64
//	32      32    SHA-256 of the section bytes
//
// Sections start on 64-byte boundaries (zero padding between them, none
// after the last) so every numeric element inside a mapping is naturally
// aligned for its Go type. Numeric payloads are stored in native byte
// order; the flags field records which, and a reader on the other
// endianness refuses the file rather than mis-aliasing it.
const (
	snapshotV2Version uint16 = 2

	snapV2HeaderLen = 6 + 2 + 4 + 4
	snapV2EntryLen  = 16 + 8 + 8 + sha256.Size
	snapV2Align     = 64

	snapV2FlagLittleEndian = 1 << 0
)

// The section-table aliasing below depends on the exact memory layout of
// the flat value types. These constants fail to compile if a field edit
// drifts the sizes, which would silently corrupt every snapshot.
const (
	_ = uint(unsafe.Sizeof(hoptree.Leaf{}) - 32)
	_ = uint(32 - unsafe.Sizeof(hoptree.Leaf{}))
	_ = uint(unsafe.Sizeof(geo.Point{}) - 16)
	_ = uint(16 - unsafe.Sizeof(geo.Point{}))
	_ = uint(unsafe.Sizeof(graph.NodeID(0)) - 4)
	_ = uint(4 - unsafe.Sizeof(graph.NodeID(0)))
)

// nativeLittleEndian reports the byte order snapshots written by this
// process use for their numeric sections.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// snapMetaV2 is the small gob-encoded "meta" section: everything a v2
// snapshot stores that is not a flat numeric array.
type snapMetaV2 struct {
	CityConfig  synth.Config
	Interval    gtfs.Interval
	Tau         float64
	Hops        int
	City        string
	Epoch       uint64
	CreatedUnix int64
}

// snapSection is one named payload in the v2 layout.
type snapSection struct {
	name string
	data []byte
}

// sliceBytes aliases a slice's backing array as raw bytes. The caller must
// not let the returned bytes outlive the slice.
func sliceBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

// bytesSlice reinterprets section bytes as a []T without copying. When the
// backing array is misaligned for T — possible on the heap-read fallback
// path, never for a page-aligned mapping — it copies into a fresh aligned
// allocation instead.
func bytesSlice[T any](b []byte) ([]T, error) {
	var t T
	size := int(unsafe.Sizeof(t))
	if len(b)%size != 0 {
		return nil, fmt.Errorf("%d bytes is not a whole number of %d-byte elements", len(b), size)
	}
	if len(b) == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(unsafe.Alignof(t)) != 0 {
		out := make([]T, len(b)/size)
		copy(sliceBytes(out), b)
		return out, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size), nil
}

// csr flattens a ragged list-of-slices into offsets plus one flat slice.
// offsets has len(rows)+1 entries; row i spans flat[offsets[i]:offsets[i+1]].
func csr[T any](rows [][]T) (offsets []int64, flat []T) {
	offsets = make([]int64, len(rows)+1)
	total := 0
	for i, r := range rows {
		offsets[i] = int64(total)
		total += len(r)
	}
	offsets[len(rows)] = int64(total)
	flat = make([]T, 0, total)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return offsets, flat
}

// csrRow bounds-checks and slices row i out of a CSR pair. The returned
// slice has capacity clamped to its length so appends never scribble on a
// neighbouring row (or a read-only mapping).
func csrRow[T any](offsets []int64, flat []T, i int) ([]T, error) {
	a, b := offsets[i], offsets[i+1]
	if a < 0 || b < a || b > int64(len(flat)) {
		return nil, fmt.Errorf("row %d spans [%d,%d) of %d elements", i, a, b, len(flat))
	}
	return flat[a:b:b], nil
}

// checkLeaves verifies one tree's leaves: zones in [0, nz), strictly
// ascending, never the root.
func checkLeaves(leaves []hoptree.Leaf, root, nz int) error {
	prev := -1
	for _, l := range leaves {
		z := int(l.Zone)
		if z < 0 || z >= nz || z <= prev || z == root {
			return fmt.Errorf("zone %d tree: leaf zone %d out of range [0,%d), out of ascending order or equal to the root", root, z, nz)
		}
		prev = z
	}
	return nil
}

// buildSnapshotSectionsV2 flattens an engine's pre-processed structures
// into the ordered v2 section list.
func buildSnapshotSectionsV2(snap *Snapshot) ([]snapSection, error) {
	isos := snap.Isochrones
	forest := snap.Forest
	nz := len(isos.Isochrones)

	meta := snapMetaV2{
		CityConfig:  snap.CityConfig,
		Interval:    snap.Interval,
		Tau:         snap.Tau,
		Hops:        snap.Hops,
		City:        snap.City,
		Epoch:       snap.Epoch,
		CreatedUnix: snap.CreatedUnix,
	}
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(&meta); err != nil {
		return nil, fmt.Errorf("encoding meta section: %w", err)
	}

	nodeRows := make([][]graph.NodeID, nz)
	secRows := make([][]float64, nz)
	hullRows := make([][]geo.Point, nz)
	origins := make([]geo.Point, nz)
	originNodes := make([]graph.NodeID, nz)
	for z, iso := range isos.Isochrones {
		if iso == nil {
			return nil, fmt.Errorf("zone %d has no isochrone", z)
		}
		nodeRows[z] = iso.NodeIDs
		secRows[z] = iso.NodeSeconds
		hullRows[z] = iso.Hull.Ring
		origins[z] = iso.Origin
		originNodes[z] = iso.OriginNode
	}
	nodeOff, nodeIDs := csr(nodeRows)
	_, nodeSecs := csr(secRows)
	hullOff, hullPts := csr(hullRows)

	leafRows := func(trees []*hoptree.Tree) ([][]hoptree.Leaf, error) {
		rows := make([][]hoptree.Leaf, len(trees))
		for z, t := range trees {
			if t == nil {
				return nil, fmt.Errorf("zone %d has no hop tree", z)
			}
			rows[z] = t.Leaves
		}
		return rows, nil
	}
	outRows, err := leafRows(forest.Out)
	if err != nil {
		return nil, err
	}
	inRows, err := leafRows(forest.In)
	if err != nil {
		return nil, err
	}
	outOff, outLeaves := csr(outRows)
	inOff, inLeaves := csr(inRows)

	return []snapSection{
		{"meta", metaBuf.Bytes()},
		{"iso.nodeoff", sliceBytes(nodeOff)},
		{"iso.nodeids", sliceBytes(nodeIDs)},
		{"iso.nodesecs", sliceBytes(nodeSecs)},
		{"iso.hulloff", sliceBytes(hullOff)},
		{"iso.hullpts", sliceBytes(hullPts)},
		{"iso.origins", sliceBytes(origins)},
		{"iso.orignodes", sliceBytes(originNodes)},
		{"forest.outoff", sliceBytes(outOff)},
		{"forest.outleaf", sliceBytes(outLeaves)},
		{"forest.inoff", sliceBytes(inOff)},
		{"forest.inleaf", sliceBytes(inLeaves)},
	}, nil
}

// encodeSnapshotV2 lays the sections out into a complete file image:
// header, checksummed table, and 64-byte-aligned payloads.
func encodeSnapshotV2(sections []snapSection) ([]byte, error) {
	tableEnd := snapV2HeaderLen + len(sections)*snapV2EntryLen
	offset := (tableEnd + snapV2Align - 1) &^ (snapV2Align - 1)
	offsets := make([]int, len(sections))
	for i, s := range sections {
		if len(s.name) > 16 {
			return nil, fmt.Errorf("section name %q exceeds 16 bytes", s.name)
		}
		offsets[i] = offset
		offset += len(s.data)
		if i < len(sections)-1 {
			offset = (offset + snapV2Align - 1) &^ (snapV2Align - 1)
		}
	}
	out := make([]byte, offset)
	copy(out, snapshotMagic)
	binary.BigEndian.PutUint16(out[6:8], snapshotV2Version)
	binary.BigEndian.PutUint32(out[8:12], uint32(len(sections)))
	var flags uint32
	if nativeLittleEndian {
		flags |= snapV2FlagLittleEndian
	}
	binary.BigEndian.PutUint32(out[12:16], flags)
	for i, s := range sections {
		entry := out[snapV2HeaderLen+i*snapV2EntryLen:]
		copy(entry[:16], s.name)
		binary.BigEndian.PutUint64(entry[16:24], uint64(offsets[i]))
		binary.BigEndian.PutUint64(entry[24:32], uint64(len(s.data)))
		sum := sha256.Sum256(s.data)
		copy(entry[32:64], sum[:])
		copy(out[offsets[i]:], s.data)
	}
	return out, nil
}

// snapEntry is one section-table entry of a snapshot file.
type snapEntry struct {
	name        string
	off, length uint64
	sum         []byte // SHA-256 of the section bytes
}

// verify checks payload, the entry's section bytes, against its checksum.
func (e snapEntry) verify(path string, payload []byte) error {
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], e.sum) {
		return &SnapshotError{Path: path, Reason: fmt.Sprintf("checksum mismatch in section %q (corrupt or partially written)", e.name)}
	}
	return nil
}

// readSnapshotTable reads the header and section table of a snapshot
// file of size bytes from r and checks them: magic, format version, byte
// order, a plausible section count, and entries that are aligned, lie
// after the table and inside the file, and name no section twice. It
// reads no payload: LoadEngine verifies every section's checksum,
// InspectSnapshot only meta's. It also returns the hex SHA-256 of the
// header and table, the file's identity. Every rejection is a
// *SnapshotError.
func readSnapshotTable(path string, r io.ReaderAt, size int64) ([]snapEntry, string, error) {
	if size < snapV2HeaderLen {
		return nil, "", &SnapshotError{Path: path, Reason: fmt.Sprintf("truncated: %d bytes is shorter than the %d-byte header", size, snapV2HeaderLen)}
	}
	header := make([]byte, snapV2HeaderLen)
	if _, err := r.ReadAt(header, 0); err != nil {
		return nil, "", &SnapshotError{Path: path, Reason: "unreadable", Err: err}
	}
	if string(header[:6]) != snapshotMagic {
		return nil, "", &SnapshotError{Path: path, Reason: "not an accessquery snapshot (bad magic; re-save with a current build)"}
	}
	if version := binary.BigEndian.Uint16(header[6:8]); version != snapshotV2Version {
		return nil, "", unsupportedVersion(path, version)
	}
	flags := binary.BigEndian.Uint32(header[12:16])
	if (flags&snapV2FlagLittleEndian != 0) != nativeLittleEndian {
		return nil, "", &SnapshotError{Path: path, Reason: "byte order mismatch (snapshot written on a machine with different endianness)"}
	}
	count := int(binary.BigEndian.Uint32(header[8:12]))
	tableEnd := snapV2HeaderLen + count*snapV2EntryLen
	if count <= 0 || count > 1<<10 || size < int64(tableEnd) {
		return nil, "", &SnapshotError{Path: path, Reason: fmt.Sprintf("truncated: section table declares %d entries but only %d bytes follow the header", count, size-snapV2HeaderLen)}
	}
	head := make([]byte, tableEnd)
	copy(head, header)
	if _, err := r.ReadAt(head[snapV2HeaderLen:], snapV2HeaderLen); err != nil {
		return nil, "", &SnapshotError{Path: path, Reason: "unreadable", Err: err}
	}
	entries := make([]snapEntry, count)
	seen := make(map[string]bool, count)
	for i := range entries {
		entry := head[snapV2HeaderLen+i*snapV2EntryLen:]
		e := snapEntry{
			name:   string(bytes.TrimRight(entry[:16], "\x00")),
			off:    binary.BigEndian.Uint64(entry[16:24]),
			length: binary.BigEndian.Uint64(entry[24:32]),
			sum:    entry[32:64],
		}
		if e.off%snapV2Align != 0 || e.off < uint64(tableEnd) {
			return nil, "", &SnapshotError{Path: path, Reason: fmt.Sprintf("section %q at misplaced offset %d", e.name, e.off)}
		}
		if e.off > uint64(size) || e.length > uint64(size)-e.off {
			return nil, "", &SnapshotError{Path: path, Reason: fmt.Sprintf("truncated: section %q wants bytes [%d,%d) but the file has %d", e.name, e.off, e.off+e.length, size)}
		}
		if seen[e.name] {
			return nil, "", &SnapshotError{Path: path, Reason: fmt.Sprintf("section %q appears twice in the table", e.name)}
		}
		seen[e.name] = true
		entries[i] = e
	}
	sum := sha256.Sum256(head)
	return entries, hex.EncodeToString(sum[:]), nil
}

// decodeMeta decodes the gob "meta" section.
func decodeMeta(path string, raw []byte) (snapMetaV2, error) {
	// gob sizes a nil map by the entry count the data declares, so one
	// corrupt count would allocate gigabytes before the first entry fails
	// to decode; into a non-nil map it inserts only what actually decodes.
	meta := snapMetaV2{CityConfig: synth.Config{POICounts: map[synth.POICategory]int{}}}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
		return meta, &SnapshotError{Path: path, Reason: `malformed section "meta"`, Err: err}
	}
	return meta, nil
}

// snapshotFromSections rebuilds the in-memory Snapshot from verified v2
// sections. The heavy slices — node arrays, hull rings, leaf stores —
// alias the section bytes directly, so on the mmap path nothing here
// copies or decodes per-element data.
func snapshotFromSections(path string, sections map[string][]byte) (*Snapshot, error) {
	get := func(name string) ([]byte, error) {
		b, ok := sections[name]
		if !ok {
			return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("missing section %q", name)}
		}
		return b, nil
	}
	bad := func(name string, err error) error {
		if serr, ok := err.(*SnapshotError); ok {
			return serr
		}
		return &SnapshotError{Path: path, Reason: fmt.Sprintf("malformed section %q", name), Err: err}
	}
	metaRaw, err := get("meta")
	if err != nil {
		return nil, err
	}
	meta, err := decodeMeta(path, metaRaw)
	if err != nil {
		return nil, err
	}

	var (
		nodeOff, hullOff, outOff, inOff []int64
		nodeIDs                         []graph.NodeID
		nodeSecs                        []float64
		hullPts, origins                []geo.Point
		originNodes                     []graph.NodeID
		outLeaves, inLeaves             []hoptree.Leaf
	)
	decode := func(name string, f func([]byte) error) error {
		b, err := get(name)
		if err != nil {
			return err
		}
		if err := f(b); err != nil {
			return bad(name, err)
		}
		return nil
	}
	steps := []struct {
		name string
		f    func([]byte) error
	}{
		{"iso.nodeoff", func(b []byte) (err error) { nodeOff, err = bytesSlice[int64](b); return }},
		{"iso.nodeids", func(b []byte) (err error) { nodeIDs, err = bytesSlice[graph.NodeID](b); return }},
		{"iso.nodesecs", func(b []byte) (err error) { nodeSecs, err = bytesSlice[float64](b); return }},
		{"iso.hulloff", func(b []byte) (err error) { hullOff, err = bytesSlice[int64](b); return }},
		{"iso.hullpts", func(b []byte) (err error) { hullPts, err = bytesSlice[geo.Point](b); return }},
		{"iso.origins", func(b []byte) (err error) { origins, err = bytesSlice[geo.Point](b); return }},
		{"iso.orignodes", func(b []byte) (err error) { originNodes, err = bytesSlice[graph.NodeID](b); return }},
		{"forest.outoff", func(b []byte) (err error) { outOff, err = bytesSlice[int64](b); return }},
		{"forest.outleaf", func(b []byte) (err error) { outLeaves, err = bytesSlice[hoptree.Leaf](b); return }},
		{"forest.inoff", func(b []byte) (err error) { inOff, err = bytesSlice[int64](b); return }},
		{"forest.inleaf", func(b []byte) (err error) { inLeaves, err = bytesSlice[hoptree.Leaf](b); return }},
	}
	for _, s := range steps {
		if err := decode(s.name, s.f); err != nil {
			return nil, err
		}
	}

	nz := len(origins)
	if len(nodeOff) != nz+1 || len(hullOff) != nz+1 || len(outOff) != nz+1 || len(inOff) != nz+1 || len(originNodes) != nz {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("inconsistent section lengths for %d zones", nz)}
	}
	if len(nodeIDs) != len(nodeSecs) {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("%d node IDs but %d node times", len(nodeIDs), len(nodeSecs))}
	}

	isos := &isochrone.Set{Tau: meta.Tau, Isochrones: make([]*isochrone.Isochrone, nz)}
	forest := &hoptree.Forest{
		Interval: meta.Interval,
		Out:      make([]*hoptree.Tree, nz),
		In:       make([]*hoptree.Tree, nz),
	}
	for z := 0; z < nz; z++ {
		ids, err := csrRow(nodeOff, nodeIDs, z)
		if err != nil {
			return nil, bad("iso.nodeoff", err)
		}
		secs, err := csrRow(nodeOff, nodeSecs, z)
		if err != nil {
			return nil, bad("iso.nodeoff", err)
		}
		hull, err := csrRow(hullOff, hullPts, z)
		if err != nil {
			return nil, bad("iso.hulloff", err)
		}
		isos.Isochrones[z] = &isochrone.Isochrone{
			Origin:      origins[z],
			OriginNode:  originNodes[z],
			Tau:         meta.Tau,
			NodeIDs:     ids,
			NodeSeconds: secs,
			Hull:        geo.Polygon{Ring: hull},
		}
		out, err := csrRow(outOff, outLeaves, z)
		if err != nil {
			return nil, bad("forest.outoff", err)
		}
		in, err := csrRow(inOff, inLeaves, z)
		if err != nil {
			return nil, bad("forest.inoff", err)
		}
		// Leaf zones index per-zone arrays and Tree.Leaf binary-searches
		// them, so a bad one that passed the checksum must fail here, not
		// as a panic in the first feature pass.
		if err := checkLeaves(out, z, nz); err != nil {
			return nil, bad("forest.outleaf", err)
		}
		if err := checkLeaves(in, z, nz); err != nil {
			return nil, bad("forest.inleaf", err)
		}
		forest.Out[z] = &hoptree.Tree{Zone: z, Direction: hoptree.Outbound, Interval: meta.Interval, Leaves: out}
		forest.In[z] = &hoptree.Tree{Zone: z, Direction: hoptree.Inbound, Interval: meta.Interval, Leaves: in}
	}

	return &Snapshot{
		CityConfig:  meta.CityConfig,
		Interval:    meta.Interval,
		Tau:         meta.Tau,
		Hops:        meta.Hops,
		City:        meta.City,
		Epoch:       meta.Epoch,
		CreatedUnix: meta.CreatedUnix,
		Isochrones:  isos,
		Forest:      forest,
	}, nil
}
