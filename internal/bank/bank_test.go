package bank

import (
	"fmt"
	"testing"
	"unsafe"

	"accessquery/internal/access"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/router"
)

func key(zone int, dest graph.NodeID, start gtfs.Seconds) access.TripKey {
	return access.TripKey{Zone: zone, Dest: dest, Start: start}
}

func price(arrive gtfs.Seconds) access.TripPrice {
	return access.TripPrice{
		Journey:   router.Journey{Depart: 0, Arrive: arrive},
		Reachable: true,
	}
}

func dep(zone int, arrive gtfs.Seconds) access.TripDeposit {
	return access.TripDeposit{Key: key(zone, 1, 0), Price: price(arrive)}
}

func TestBankDrainDepositRoundTrip(t *testing.T) {
	b := New(Config{})
	seg := b.Segment("coventry", 1)
	if _, ok := seg.Drain(key(0, 1, 0)); ok {
		t.Fatal("empty segment drained an entry")
	}
	seg.Deposit([]access.TripDeposit{dep(0, 100), dep(1, 200)})
	p, ok := seg.Drain(key(0, 1, 0))
	if !ok || p.Journey.Arrive != 100 {
		t.Fatalf("drain = %+v, %v; want arrive 100", p, ok)
	}
	st := b.Stats()
	if st.Entries != 2 || st.Deposits != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 entries, 2 deposits, 1 hit, 1 miss", st)
	}
	if len(st.Segments) != 1 || st.Segments[0].City != "coventry" || st.Segments[0].Entries != 2 {
		t.Errorf("segments = %+v", st.Segments)
	}
}

func TestBankSegmentsAreIsolated(t *testing.T) {
	b := New(Config{})
	b.Segment("coventry", 1).Deposit([]access.TripDeposit{dep(0, 100)})
	if _, ok := b.Segment("coventry", 2).Drain(key(0, 1, 0)); ok {
		t.Error("epoch 2 drained epoch 1's entry")
	}
	if _, ok := b.Segment("birmingham", 1).Drain(key(0, 1, 0)); ok {
		t.Error("birmingham drained coventry's entry")
	}
}

func TestBankRetireBelow(t *testing.T) {
	b := New(Config{})
	old := b.Segment("coventry", 1)
	old.Deposit([]access.TripDeposit{dep(0, 100), dep(1, 200)})
	other := b.Segment("birmingham", 1)
	other.Deposit([]access.TripDeposit{dep(0, 300)})

	if dropped := b.RetireBelow("coventry", 2); dropped != 2 {
		t.Fatalf("retired %d entries, want 2", dropped)
	}
	// The retired handle keeps draining for in-flight runs on the old
	// engine generation, but no longer deposits.
	if _, ok := old.Drain(key(0, 1, 0)); !ok {
		t.Error("in-flight drain on a retired segment should still hit")
	}
	old.Deposit([]access.TripDeposit{dep(5, 500)})
	if _, ok := old.Drain(key(5, 1, 0)); ok {
		t.Error("deposit into a retired segment should be dropped")
	}
	// Another city's segments are untouched.
	if _, ok := other.Drain(key(0, 1, 0)); !ok {
		t.Error("retire of coventry dropped birmingham's entries")
	}
	st := b.Stats()
	if st.Entries != 1 || st.Retired != 2 {
		t.Errorf("stats = %+v, want 1 live entry, 2 retired", st)
	}
	// A late Segment() call for the retired epoch (a request that acquired
	// the old engine just before the swap) must not resurrect it.
	late := b.Segment("coventry", 1)
	late.Deposit([]access.TripDeposit{dep(6, 600)})
	if got := b.Stats().Entries; got != 1 {
		t.Errorf("late segment for a retired epoch took deposits: %d entries", got)
	}
	for _, s := range b.Stats().Segments {
		if s.City == "coventry" && s.Epoch == 1 {
			t.Error("retired epoch reappeared in attached segments")
		}
	}
}

func TestBankCarryForward(t *testing.T) {
	b := New(Config{})
	b.Segment("coventry", 1).Deposit([]access.TripDeposit{dep(0, 100), dep(1, 200)})
	if n := b.CarryForward("coventry", 1, 2); n != 2 {
		t.Fatalf("seeded %d entries, want 2", n)
	}
	b.RetireBelow("coventry", 2)
	p, ok := b.Segment("coventry", 2).Drain(key(1, 1, 0))
	if !ok || p.Journey.Arrive != 200 {
		t.Fatalf("seeded entry missing after retire: %+v, %v", p, ok)
	}
	st := b.Stats()
	if st.Seeded != 2 {
		t.Errorf("seeded counter = %d, want 2", st.Seeded)
	}
	// Seeding is not a deposit: the deposit counter reflects labeler
	// traffic only.
	if st.Deposits != 2 {
		t.Errorf("deposits = %d, want the original 2 only", st.Deposits)
	}
}

func TestBankCapacityEvictsOldestSegmentFirst(t *testing.T) {
	b := New(Config{Capacity: 4})
	first := b.Segment("coventry", 1)
	deps := make([]access.TripDeposit, 3)
	for i := range deps {
		deps[i] = dep(i, gtfs.Seconds(100*(i+1)))
	}
	first.Deposit(deps)
	second := b.Segment("birmingham", 1)
	second.Deposit([]access.TripDeposit{dep(10, 100), dep(11, 200), dep(12, 300)})

	st := b.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want capacity 4", st.Entries)
	}
	if st.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", st.Evicted)
	}
	// The oldest attached segment (coventry) lost its oldest entries.
	if _, ok := first.Drain(key(0, 1, 0)); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := first.Drain(key(2, 1, 0)); !ok {
		t.Error("newest entry of the oldest segment was evicted out of order")
	}
	if _, ok := second.Drain(key(12, 1, 0)); ok != true {
		t.Error("newest segment lost entries while the oldest had some")
	}
}

func TestBankConcurrentAccess(t *testing.T) {
	b := New(Config{Capacity: 256})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			seg := b.Segment("coventry", uint64(g%2+1))
			for i := 0; i < 200; i++ {
				seg.Deposit([]access.TripDeposit{dep(i, gtfs.Seconds(i))})
				seg.Drain(key(i, 1, 0))
				if i%50 == 0 {
					b.Stats()
				}
			}
		}(g)
	}
	go b.RetireBelow("coventry", 2)
	go b.CarryForward("coventry", 1, 2)
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := b.Stats(); st.Entries > 256 {
		t.Errorf("entries %d exceed capacity 256", st.Entries)
	}
}

func TestBankStatsSegmentOrder(t *testing.T) {
	b := New(Config{})
	b.Segment("coventry", 2)
	b.Segment("birmingham", 1)
	b.Segment("coventry", 1)
	var got []string
	for _, s := range b.Stats().Segments {
		got = append(got, fmt.Sprintf("%s/%d", s.City, s.Epoch))
	}
	want := []string{"birmingham/1", "coventry/1", "coventry/2"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("segment order = %v, want %v", got, want)
		}
	}
}

// TestBankKeepsRouterPricesExactly: entries are stored at the width the
// router produces (float32 components), so such a price drains exactly as
// deposited, and a price that would not survive the narrowing is not
// stored at all rather than returned altered.
func TestBankKeepsRouterPricesExactly(t *testing.T) {
	b := New(Config{})
	seg := b.Segment("coventry", 1)
	exact := access.TripPrice{Reachable: true, Journey: router.Journey{
		Depart: 7 * 3600, Arrive: 7*3600 + 1754,
		AccessWalk: float64(float32(312.5)), EgressWalk: 97, TransferWalk: 41,
		Wait: 263, InVehicle: 1041, Boardings: 2, Fare: float64(float32(4.2)),
	}}
	unreachable := access.TripPrice{}
	inexact := exact
	inexact.Journey.Fare = 0.1 // not a float32
	seg.Deposit([]access.TripDeposit{
		{Key: key(3, 40, 7*3600), Price: exact},
		{Key: key(3, 41, 7*3600), Price: unreachable},
		{Key: key(3, 42, 7*3600), Price: inexact},
	})
	if p, ok := seg.Drain(key(3, 40, 7*3600)); !ok || p != exact {
		t.Errorf("drained %+v, %v; deposited %+v", p, ok, exact)
	}
	if p, ok := seg.Drain(key(3, 41, 7*3600)); !ok || p != unreachable {
		t.Errorf("negative result drained as %+v, %v", p, ok)
	}
	if p, ok := seg.Drain(key(3, 42, 7*3600)); ok {
		t.Errorf("a price that cannot be stored exactly drained as %+v", p)
	}
	if st := b.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

// TestSlotLayout pins a stored trip at 48 bytes and the queue chunk at
// 64 KiB less at most one slot's padding: a field added to slot, or a
// reordering that adds padding, shows up here before it grows a full bank
// by tens of megabytes.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 48 {
		t.Errorf("slot is %d bytes, want 48", got)
	}
	if chunk := queueChunk * unsafe.Sizeof(slot{}); chunk > 64<<10 || 64<<10-chunk > 16 {
		t.Errorf("a queue chunk is %d bytes, want 64 KiB to within 16", chunk)
	}
}

// TestBankEvictsAcrossQueueChunks: FIFO eviction keeps exactly the newest
// capacity entries when the queue spans, and frees, several chunks, and an
// overwrite keeps a key's place in the queue.
func TestBankEvictsAcrossQueueChunks(t *testing.T) {
	const capacity, total = queueChunk + 7, 3*queueChunk + 11
	b := New(Config{Capacity: capacity})
	seg := b.Segment("coventry", 1)
	for z := 0; z < total; z += 100 {
		var deps []access.TripDeposit
		for i := z; i < z+100 && i < total; i++ {
			deps = append(deps, dep(i, gtfs.Seconds(i)))
		}
		seg.Deposit(deps)
		// Re-depositing the oldest survivor must not make it young again.
		if oldest := z + len(deps) - capacity; oldest >= 0 {
			seg.Deposit([]access.TripDeposit{dep(oldest, gtfs.Seconds(oldest))})
		}
	}
	if st := b.Stats(); st.Entries != capacity || st.Segments[0].Entries != capacity {
		t.Fatalf("entries = %d (segment %d), want %d", st.Entries, st.Segments[0].Entries, capacity)
	}
	for i := 0; i < total; i++ {
		p, ok := seg.Drain(key(i, 1, 0))
		if want := i >= total-capacity; ok != want || (ok && p.Journey.Arrive != gtfs.Seconds(i)) {
			t.Fatalf("zone %d: drained %+v, %v; want present=%v", i, p, ok, want)
		}
	}
	if n := len(seg.slots.chunks); n > 3 {
		t.Errorf("%d chunks held for %d entries", n, capacity)
	}
}
