package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"accessquery/internal/hoptree"
)

// TestSnapshotV2DeepEquality checks the flat sections reproduce the
// original structures exactly — every leaf, node array, and hull ring —
// whether they come back aliased from a mapping or copied to the heap.
func TestSnapshotV2DeepEquality(t *testing.T) {
	e := engine(t)
	path := filepath.Join(t.TempDir(), "flat.snap")
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	nz := e.Forest().Zones()
	if restored.Forest().Zones() != nz {
		t.Fatalf("restored forest has %d zones, want %d", restored.Forest().Zones(), nz)
	}
	// A zone with no leaves round-trips as an empty (non-nil) subslice of
	// the flat store, so compare element-wise rather than DeepEqual on the
	// slice headers.
	leavesEqual := func(a, b []hoptree.Leaf) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	for z := 0; z < nz; z++ {
		for _, dir := range []struct {
			name      string
			got, want []hoptree.Leaf
		}{
			{"out", restored.Forest().Outbound(z).Leaves, e.Forest().Outbound(z).Leaves},
			{"in", restored.Forest().Inbound(z).Leaves, e.Forest().Inbound(z).Leaves},
		} {
			if !leavesEqual(dir.got, dir.want) {
				t.Fatalf("zone %d %sbound leaves differ after v2 restore", z, dir.name)
			}
		}
		a, b := e.isos.For(z), restored.isos.For(z)
		if !reflect.DeepEqual(a.NodeIDs, b.NodeIDs) || !reflect.DeepEqual(a.NodeSeconds, b.NodeSeconds) {
			t.Fatalf("zone %d walkshed nodes differ after v2 restore", z)
		}
		if !reflect.DeepEqual(a.Hull, b.Hull) || a.Origin != b.Origin || a.OriginNode != b.OriginNode {
			t.Fatalf("zone %d hull/origin differ after v2 restore", z)
		}
	}
}

// TestSnapshotV2Provenance checks the meta section round-trips the
// producing epoch and city, through both the cheap inspection path and a
// full load.
func TestSnapshotV2Provenance(t *testing.T) {
	e := engine(t)
	path := filepath.Join(t.TempDir(), "prov.snap")
	before := time.Now().Unix()
	if err := e.SaveSnapshotEpoch(path, 7); err != nil {
		t.Fatal(err)
	}
	info, err := InspectSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Epoch != 7 || info.City != e.City.Config.Name {
		t.Fatalf("InspectSnapshot = %+v, want version 2, epoch 7, city %q", info, e.City.Config.Name)
	}
	if info.CreatedUnix < before || info.CreatedUnix > time.Now().Unix() {
		t.Errorf("created_unix %d outside the save window", info.CreatedUnix)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.SizeBytes != st.Size() {
		t.Errorf("size %d, want file size %d", info.SizeBytes, st.Size())
	}
	restored, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	src := restored.SnapshotInfo()
	if src == nil {
		t.Fatal("loaded engine has no SnapshotInfo")
	}
	if src.Checksum == "" || src.Checksum != info.Checksum {
		t.Errorf("load checksum %q != inspect checksum %q", src.Checksum, info.Checksum)
	}
	if src.Epoch != 7 || src.Version != 2 {
		t.Errorf("SnapshotInfo = %+v, want version 2 epoch 7", src)
	}
	// Derived engines share the mapping, so they must carry the source.
	d, _, err := restored.Derive(DeriveSpec{City: restored.City})
	if err == nil && d.SnapshotInfo() != src {
		t.Error("derived engine dropped the snapshot source")
	}
}

// TestSnapshotV2RejectsSectionDamage extends the damaged-variants table
// with v2-specific corruption: a byte flipped deep inside a numeric
// section and a renamed table entry must both be precise SnapshotErrors,
// never a crash or a silently wrong engine.
func TestSnapshotV2RejectsSectionDamage(t *testing.T) {
	e := engine(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	if err := e.SaveSnapshot(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// damageLeaf re-encodes the engine with one leaf zone rewritten: the
	// checksums are valid, so only the loader's leaf checks can refuse it.
	nz := e.Forest().Zones()
	damageLeaf := func(zone func(root int, leaves []hoptree.Leaf) int32) func([]byte) []byte {
		return func([]byte) []byte {
			snap := e.buildSnapshot(0)
			f := *snap.Forest
			f.Out = append([]*hoptree.Tree(nil), f.Out...)
			for z, tree := range f.Out {
				if len(tree.Leaves) < 2 {
					continue
				}
				bent := *tree
				bent.Leaves = append([]hoptree.Leaf(nil), tree.Leaves...)
				bent.Leaves[1].Zone = zone(z, bent.Leaves)
				f.Out[z] = &bent
				break
			}
			snap.Forest = &f
			sections, err := buildSnapshotSectionsV2(snap)
			if err != nil {
				t.Fatal(err)
			}
			image, err := encodeSnapshotV2(sections)
			if err != nil {
				t.Fatal(err)
			}
			return image
		}
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		reason  string
		inspect bool // InspectSnapshot must refuse it too, for the same reason
	}{
		{"leaf_zone_past_end", damageLeaf(func(int, []hoptree.Leaf) int32 { return int32(nz + 5) }), "forest.outleaf", false},
		{"leaf_zone_negative", damageLeaf(func(int, []hoptree.Leaf) int32 { return -1 }), "forest.outleaf", false},
		{"leaf_zones_unordered", damageLeaf(func(_ int, l []hoptree.Leaf) int32 { return l[0].Zone }), "forest.outleaf", false},
		{"leaf_zone_is_root", damageLeaf(func(root int, _ []hoptree.Leaf) int32 { return int32(root) }), "forest.outleaf", false},
		{"flipped_section_byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Flip the first byte of the first section, located via the
			// table so the mutation never lands in alignment padding.
			off := binary.BigEndian.Uint64(c[snapV2HeaderLen+16 : snapV2HeaderLen+24])
			c[off] ^= 0x40
			return c
		}, "checksum", true},
		{"renamed_section", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Overwrite the first table entry's name ("meta").
			copy(c[snapV2HeaderLen:], "zeta\x00\x00\x00\x00")
			return c
		}, "missing section", true},
		{"zero_sections", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8], c[9], c[10], c[11] = 0, 0, 0, 0
			return c
		}, "section table", true},
		{"version_1_header", func(b []byte) []byte {
			// A well-formed header from the retired v1 format is refused
			// by version, never decoded.
			c := append([]byte(nil), b...)
			binary.BigEndian.PutUint16(c[6:8], 1)
			return c
		}, "unsupported format version 1", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadEngine(path)
			if err == nil {
				t.Fatal("damaged snapshot should fail to load")
			}
			serr, ok := err.(*SnapshotError)
			if !ok {
				t.Fatalf("want *SnapshotError, got %T: %v", err, err)
			}
			if !strings.Contains(serr.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", serr.Reason, tc.reason)
			}
			checkInspect(t, path, tc.inspect, tc.reason)
		})
	}
}
