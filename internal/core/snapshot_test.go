package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"accessquery/internal/hoptree"
	"accessquery/internal/synth"
)

func TestSnapshotRoundTrip(t *testing.T) {
	e := engine(t)
	path := filepath.Join(t.TempDir(), "engine.gob")
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.City.Zones) != len(e.City.Zones) {
		t.Fatalf("restored city has %d zones, want %d",
			len(restored.City.Zones), len(e.City.Zones))
	}
	if restored.Forest().Zones() != e.Forest().Zones() {
		t.Fatal("forest zone counts differ")
	}
	// A query on the restored engine gives byte-identical results.
	q := vaxQuery(e, ModelOLS, 0.2)
	want, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.MAC {
		if want.MAC[i] != got.MAC[i] || want.ACSD[i] != got.ACSD[i] {
			t.Fatalf("zone %d differs after snapshot restore", i)
		}
	}
}

func TestLoadEngineMissingFile(t *testing.T) {
	var serr *SnapshotError
	_, err := LoadEngine(filepath.Join(t.TempDir(), "nope.gob"))
	if err == nil {
		t.Fatal("missing snapshot should fail")
	}
	if !errors.As(err, &serr) {
		t.Errorf("want *SnapshotError, got %T: %v", err, err)
	}
}

func TestLoadEngineCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gob")
	if err := writeFile(path, []byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}
	var serr *SnapshotError
	if _, err := LoadEngine(path); err == nil {
		t.Fatal("corrupt snapshot should fail")
	} else if !errors.As(err, &serr) {
		t.Errorf("want *SnapshotError, got %T: %v", err, err)
	} else if !strings.Contains(serr.Reason, "header") && !strings.Contains(serr.Reason, "magic") {
		t.Errorf("reason %q should name the bad header", serr.Reason)
	}
}

// Every damaged variant of a valid snapshot must be rejected with a
// *SnapshotError whose Reason names what went wrong — never a raw gob
// decode error. Damage to the header, the table or the meta section must
// also stop InspectSnapshot, so the snapshot listing never describes a
// file that activating would refuse.
func TestLoadEngineRejectsDamagedSnapshots(t *testing.T) {
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

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		reason  string // substring the SnapshotError must carry
		inspect bool   // InspectSnapshot must refuse it too, for the same reason
	}{
		{"truncated_header", func(b []byte) []byte { return b[:10] }, "truncated", true},
		{"truncated_payload", func(b []byte) []byte { return b[:len(b)-100] }, "truncated", true},
		{"bad_magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOTSNP")
			return c
		}, "magic", true},
		{"future_version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[6], c[7] = 0xff, 0xff
			return c
		}, "version", true},
		{"flipped_byte_order", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[15] ^= snapV2FlagLittleEndian
			return c
		}, "byte order", true},
		{"flipped_payload_byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x55
			return c
		}, "checksum", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := writeFile(path, tc.mutate(raw)); err != nil {
				t.Fatal(err)
			}
			_, err := LoadEngine(path)
			if err == nil {
				t.Fatal("damaged snapshot should fail to load")
			}
			var serr *SnapshotError
			if !errors.As(err, &serr) {
				t.Fatalf("want *SnapshotError, got %T: %v", err, err)
			}
			if !strings.Contains(serr.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", serr.Reason, tc.reason)
			}
			checkInspect(t, path, tc.inspect, tc.reason)
		})
	}
}

// checkInspect checks InspectSnapshot on a damaged file: a rejection
// naming reason when refuse is set, a description otherwise.
func checkInspect(t *testing.T, path string, refuse bool, reason string) {
	t.Helper()
	_, err := InspectSnapshot(path)
	if !refuse {
		if err != nil {
			t.Errorf("InspectSnapshot refused payload damage it does not check: %v", err)
		}
		return
	}
	var serr *SnapshotError
	if !errors.As(err, &serr) {
		t.Fatalf("InspectSnapshot: want *SnapshotError, got %T: %v", err, err)
	}
	if !strings.Contains(serr.Reason, reason) {
		t.Errorf("InspectSnapshot reason %q does not mention %q", serr.Reason, reason)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestSaveSnapshotOverLoadedFile saves a different-size engine over the
// file a loaded engine maps. The loaded engine's forest and isochrones
// alias the mapping, so an in-place rewrite would change them under it (or
// fault past the new end of file); saving must replace the file instead.
func TestSaveSnapshotOverLoadedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := engine(t).SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	src := loaded.SnapshotInfo()
	if src.MmapBytes == 0 {
		t.Skip("snapshot loaded onto the heap, not mapped; nothing aliases the file")
	}
	// A fault on a truncated mapping fails the test instead of killing the
	// binary.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reading the loaded engine after the save faulted: %v", r)
		}
	}()
	state := func() []byte {
		f := loaded.Forest()
		var out, in [][]hoptree.Leaf
		for z := 0; z < f.Zones(); z++ {
			out = append(out, f.Outbound(z).Leaves)
			in = append(in, f.Inbound(z).Leaves)
		}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, v := range []interface{}{out, in, loaded.Isochrones().Isochrones} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	before := state()

	c, err := synth.Generate(synth.Scaled(synth.Coventry(), 0.05))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEngine(c, EngineOptions{Interval: loaded.Interval})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() == src.SizeBytes {
		t.Fatal("the second engine's snapshot has the first one's size; pick a different scale")
	}
	if !bytes.Equal(state(), before) {
		t.Fatal("saving over the mapped file changed the loaded engine's forest or isochrones")
	}
	if restored, err := LoadEngine(path); err != nil {
		t.Fatal(err)
	} else if restored.Forest().Zones() != other.Forest().Zones() {
		t.Errorf("reloaded %d zones, want the new engine's %d", restored.Forest().Zones(), other.Forest().Zones())
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("snapshot dir holds %d entries after the save, want only the snapshot", len(entries))
	}
}
