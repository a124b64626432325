package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// snapshotFiles saves the shared engines as two snapshots of one city.
func snapshotFiles(t *testing.T) (first, second string) {
	t.Helper()
	a, b := sharedEngines(t)
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, second = filepath.Join(dir, "first.snap"), filepath.Join(dir, "second.snap")
	if err := a.SaveSnapshot(first); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveSnapshot(second); err != nil {
		t.Fatal(err)
	}
	return first, second
}

// openMapped opens a registry serving path, skipping the test where the
// process's mappings cannot be observed or the snapshot was read onto the
// heap.
func openMapped(t *testing.T, path string) *Tenant {
	t.Helper()
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps to observe file mappings")
	}
	r, err := Open([]TenantSpec{{Name: "coventry", Path: path}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := r.Get("coventry")
	if tn.Engine().SnapshotInfo().MmapBytes == 0 {
		t.Skip("snapshot loaded onto the heap, not mapped")
	}
	return tn
}

// mapped reports whether the process maps the file at path.
func mapped(t *testing.T, path string) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(maps, []byte(path))
}

func waitDrained(t *testing.T, r *Retired) {
	t.Helper()
	select {
	case <-r.Drained:
	case <-time.After(2 * time.Second):
		t.Fatalf("epoch %d never drained", r.Epoch)
	}
}

// TestSwapAwayUnmapsDrainedSnapshot: activating another snapshot unmaps
// the old file once the old generation's last run releases it, not before.
func TestSwapAwayUnmapsDrainedSnapshot(t *testing.T) {
	first, second := snapshotFiles(t)
	tn := openMapped(t, first)
	_, _, release := tn.Acquire()
	_, retired, err := tn.SwapSnapshot(second)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped(t, first) {
		t.Fatal("the old snapshot was unmapped while a run still held its generation")
	}
	release()
	waitDrained(t, retired)
	if mapped(t, first) {
		t.Error("the old snapshot is still mapped after its generation drained")
	}
	if !mapped(t, second) {
		t.Error("the active snapshot is not mapped")
	}
}

// TestScenarioBaselineKeepsMappingOpen: a scenario over a loaded snapshot
// pins the baseline, so draining the baseline generation or the scenario's
// own generations leaves the file mapped until a swap to another snapshot
// drains.
func TestScenarioBaselineKeepsMappingOpen(t *testing.T) {
	first, second := snapshotFiles(t)
	tn := openMapped(t, first)
	_, _, retired, err := tn.ApplyScenario(closeFirstRoute(t, tn.reg))
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, retired)
	if !mapped(t, first) {
		t.Fatal("draining the baseline generation unmapped the pinned baseline's snapshot")
	}
	_, retired, err = tn.RevertScenario()
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, retired)
	if !mapped(t, first) {
		t.Fatal("revert unmapped the reinstalled baseline's snapshot")
	}
	if _, retired, err = tn.SwapSnapshot(second); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, retired)
	if mapped(t, first) {
		t.Error("the baseline snapshot is still mapped after a swap away drained it")
	}
}
