package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"

	"accessquery/internal/gtfs"
	"accessquery/internal/hoptree"
	"accessquery/internal/synth"
)

// fuzzBase is the v2 section list, and its sealed file image, of a
// scale-0.05 engine: every fuzz input is a patch against it.
var fuzzBase struct {
	once     sync.Once
	sections []snapSection
	image    []byte
	err      error
}

func fuzzSections(t testing.TB) ([]snapSection, []byte) {
	t.Helper()
	fuzzBase.once.Do(func() {
		c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.05))
		if err != nil {
			fuzzBase.err = err
			return
		}
		e, err := NewEngine(c, EngineOptions{
			Interval: gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday},
		})
		if err != nil {
			fuzzBase.err = err
			return
		}
		if fuzzBase.sections, fuzzBase.err = buildSnapshotSectionsV2(e.buildSnapshot(0)); fuzzBase.err != nil {
			return
		}
		fuzzBase.image, fuzzBase.err = encodeSnapshotV2(fuzzBase.sections)
	})
	if fuzzBase.err != nil {
		t.Fatal(fuzzBase.err)
	}
	return fuzzBase.sections, fuzzBase.image
}

// patched returns a copy of b resized to size (when size is non-zero;
// truncated or zero-extended, up to twice b's length plus 64) with patch
// written at at, growing the copy if the patch runs past its end.
func patched(b []byte, at uint32, patch []byte, size uint32) []byte {
	out := append([]byte(nil), b...)
	if size != 0 {
		n := int(size % uint32(2*len(b)+64))
		if n <= len(out) {
			out = out[:n]
		} else {
			out = append(out, make([]byte, n-len(out))...)
		}
	}
	i := int(at % uint32(len(out)+1))
	if end := i + len(patch); end > len(out) {
		out = append(out, make([]byte, end-len(out))...)
	}
	copy(out[i:], patch)
	return out
}

// FuzzSnapshotV2 feeds the snapshot decoder damaged images. Section
// index sec below the section count patches that section's payload and
// re-seals the image with encodeSnapshotV2, so the damage passes the
// checksums and reaches the length, offset and leaf checks behind them;
// any other index patches the sealed image itself (header, table,
// padding). Either way the decoder must return a *SnapshotError or a
// snapshot whose every CSR row and leaf index is in range — never panic.
// InspectSnapshot reads the same table through the same parser: it too
// returns a *SnapshotError or a description, and describes every image the
// decoder accepts exactly as the decoder does.
func FuzzSnapshotV2(f *testing.F) {
	sections, sealed := fuzzSections(f)
	f.Add(uint8(0), uint32(0), []byte(nil), uint32(0)) // the undamaged image
	// The four leaf-damage cases of TestSnapshotV2RejectsSectionDamage:
	// the second leaf of the first outbound tree with two leaves gets a
	// zone past the end, a negative zone, its predecessor's zone, or the
	// root's.
	const outLeaf = 9 // "forest.outleaf"
	if sections[outLeaf].name != "forest.outleaf" || sections[outLeaf-1].name != "forest.outoff" {
		f.Fatal("section order changed; update the seeds")
	}
	offs, err := bytesSlice[int64](sections[outLeaf-1].data)
	if err != nil {
		f.Fatal(err)
	}
	leaves, err := bytesSlice[hoptree.Leaf](sections[outLeaf].data)
	if err != nil {
		f.Fatal(err)
	}
	nz := len(offs) - 1
	for z := 0; z < nz; z++ {
		if offs[z+1]-offs[z] < 2 {
			continue
		}
		second := int(offs[z]) + 1
		at := uint32(second*int(unsafe.Sizeof(hoptree.Leaf{})) + int(unsafe.Offsetof(hoptree.Leaf{}.Zone)))
		for _, zone := range []int32{int32(nz + 5), -1, leaves[second-1].Zone, int32(z)} {
			f.Add(uint8(outLeaf), at, binary.NativeEndian.AppendUint32(nil, uint32(zone)), uint32(0))
		}
		break
	}
	// Table damage on the sealed image: a renamed first section and a
	// zero section count.
	image := uint8(len(sections))
	f.Add(image, uint32(snapV2HeaderLen), []byte("zeta"), uint32(0))
	f.Add(image, uint32(8), []byte{0, 0, 0, 0}, uint32(0))
	// The byte-order flag flipped, and the last 4 KB cut off.
	f.Add(image, uint32(15), []byte{0}, uint32(0))
	f.Add(image, uint32(0), []byte(nil), uint32(len(sealed)-4096))

	f.Fuzz(func(t *testing.T, sec uint8, at uint32, patch []byte, size uint32) {
		base, sealed := fuzzSections(t)
		var img []byte
		if i := int(sec); i < len(base) {
			secs := append([]snapSection(nil), base...)
			secs[i].data = patched(secs[i].data, at, patch, size)
			var err error
			if img, err = encodeSnapshotV2(secs); err != nil {
				t.Fatal(err)
			}
		} else {
			img = patched(sealed, at, patch, size)
		}
		info, inspectErr := inspectSnapshot("fuzz.snap", bytes.NewReader(img), int64(len(img)))
		checkRejection(t, inspectErr)
		snap, checksum, err := decodeSnapshot("fuzz.snap", img)
		if err != nil {
			checkRejection(t, err)
			return
		}
		checkDecoded(t, snap)
		if inspectErr != nil {
			t.Fatalf("the decoder accepts an image InspectSnapshot refuses: %v", inspectErr)
		}
		if info.Checksum != checksum || info.City != snap.City || info.Epoch != snap.Epoch || info.CreatedUnix != snap.CreatedUnix {
			t.Fatalf("InspectSnapshot describes %+v, the decoder %s %q %d %d", info, checksum, snap.City, snap.Epoch, snap.CreatedUnix)
		}
	})
}

// checkRejection fails unless err is nil or a *SnapshotError.
func checkRejection(t *testing.T, err error) {
	t.Helper()
	var serr *SnapshotError
	if err != nil && !errors.As(err, &serr) {
		t.Fatalf("rejection is %T, not *SnapshotError: %v", err, err)
	}
}

// checkDecoded is FuzzSnapshotV2's property for an accepted image: one
// isochrone and two trees per zone, node rows whose IDs and times pair
// up and that cannot be appended into a neighbour, and leaves that name
// a zone in range, ascending, never the root.
func checkDecoded(t *testing.T, snap *Snapshot) {
	t.Helper()
	isos := snap.Isochrones.Isochrones
	nz := len(isos)
	if len(snap.Forest.Out) != nz || len(snap.Forest.In) != nz {
		t.Fatalf("%d isochrones but %d/%d trees", nz, len(snap.Forest.Out), len(snap.Forest.In))
	}
	for z, iso := range isos {
		if len(iso.NodeIDs) != len(iso.NodeSeconds) {
			t.Fatalf("zone %d: %d node IDs, %d node times", z, len(iso.NodeIDs), len(iso.NodeSeconds))
		}
		if cap(iso.NodeIDs) != len(iso.NodeIDs) || cap(iso.Hull.Ring) != len(iso.Hull.Ring) {
			t.Fatalf("zone %d: a row's capacity reaches into its neighbour", z)
		}
		for _, tree := range []*hoptree.Tree{snap.Forest.Out[z], snap.Forest.In[z]} {
			prev := int32(-1)
			for _, l := range tree.Leaves {
				if l.Zone < 0 || int(l.Zone) >= nz || l.Zone <= prev || int(l.Zone) == z {
					t.Fatalf("zone %d: leaf zone %d accepted", z, l.Zone)
				}
				prev = l.Zone
			}
		}
	}
}
