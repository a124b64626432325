package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"accessquery/internal/hoptree"
)

// TestMappedSliceOutlivesEngine: a loaded engine's forest aliases its
// snapshot mapping, and slices into a mapping do not keep it reachable, so
// the garbage collector must never be what unmaps it. A leaf slice kept
// after the engine's last use reads the same leaves through collections.
func TestMappedSliceOutlivesEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.snap")
	if err := engine(t).SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SnapshotInfo().MmapBytes == 0 {
		t.Skip("snapshot loaded onto the heap, not mapped")
	}
	var leaves []hoptree.Leaf
	for z := 0; z < loaded.Forest().Zones() && len(leaves) == 0; z++ {
		leaves = loaded.Forest().Outbound(z).Leaves
	}
	if len(leaves) == 0 {
		t.Fatal("no zone has an outbound leaf")
	}
	want := append([]hoptree.Leaf(nil), leaves...)
	loaded = nil

	// A fault on an unmapped page fails the test instead of killing the
	// binary.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reading a leaf slice after the engine was collected faulted: %v", r)
		}
	}()
	for i := 0; i < 2; i++ {
		runtime.GC()
		// Give a finalizer queued by the collection time to run.
		time.Sleep(10 * time.Millisecond)
		if !reflect.DeepEqual(leaves, want) {
			t.Fatalf("after collection %d the leaves read %+v, want %+v", i+1, leaves, want)
		}
	}
}
