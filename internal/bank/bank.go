// Package bank implements the cross-query SPQ label bank (ROADMAP item 3):
// a bounded, concurrency-safe store of priced trips shared across queries,
// jobs, and tenants. Labeling drains it before spending β budget on
// shortest-path queries and deposits what it prices, so N similar queries
// collapse from N full labelings into one warm pool.
//
// Entries are journeys, not costs: the labeler re-prices a drained journey
// through the same code path an SPQ result takes, which is what makes
// bank-enabled results deep-equal to bank-disabled ones by construction —
// the bank changes where a price comes from, never what it is.
//
// The store is partitioned into segments keyed by {city, epoch}. A journey
// is only meaningful relative to the exact engine generation that computed
// it, so segment lifecycle follows the registry's epoch machinery:
//
//   - A hot-swap (or scenario revert) installs a new epoch and retires
//     every older segment of that city wholesale (RetireBelow).
//   - A scenario apply whose batch touches no transit (POI/weight-only
//     mutations) derives an engine that shares the baseline's router
//     outright, so its journeys are bit-identical: CarryForward seeds the
//     old segment's entries into the new epoch, like
//     features.Extractor.SeedFrom carries feature vectors.
//   - A transit-touching batch invalidates the whole city. Blast-radius
//     zones do not bound journey changes — a journey from any origin can
//     ride a mutated route in a later leg, and the router's profile search
//     breaks arrival-time ties by relaxation order, so not even walk-only
//     journeys are provably stable. See DESIGN.md.
//
// Detached (retired) segments keep serving Drain for in-flight runs that
// still hold the old engine generation — those runs execute on the old
// timetable, so its journeys remain correct for them — but their Deposit
// becomes a no-op and their entries no longer count against capacity.
package bank

import (
	"sort"
	"sync"
	"sync/atomic"

	"accessquery/internal/access"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/router"
)

// DefaultCapacity bounds total live entries across all attached segments
// when Config.Capacity is unset. A priced trip is ~85 bytes all in (a
// 48-byte slot in the deposit queue plus its entry in the key index; 72–85
// measured as the index fills), so the default costs ~90 MB fully warm.
const DefaultCapacity = 1 << 20

// Config tunes a Bank.
type Config struct {
	// Capacity bounds live entries across all attached segments; 0 means
	// DefaultCapacity. Over capacity, the oldest attached segment's oldest
	// entries are evicted first (FIFO — entries have no per-hit bookkeeping,
	// keeping the drain path cheap).
	Capacity int
}

// SegmentKey scopes entries to one engine generation.
type SegmentKey struct {
	City  string `json:"city"`
	Epoch uint64 `json:"epoch"`
}

// tripKey and entry are access.TripKey and access.TripPrice at the width
// the router produces them: a journey's components are float32 sums in the
// search labels, so narrowing them back loses nothing, and a bank at
// capacity holds a million of these. A price that would not survive the
// round trip (only a foreign depositor can make one) is not stored —
// Deposit is advisory, Drain exact.
type tripKey struct {
	zone, dest, start int32
}

type entry struct {
	depart, arrive                                              int32
	accessWalk, egressWalk, transferWalk, wait, inVehicle, fare float32
	boardings                                                   int16
	reachable                                                   bool
}

// slot is one stored trip.
type slot struct {
	key tripKey
	entry
}

// slotQueue holds a segment's slots in deposit order, addressed by a
// sequence number that only grows (and may wrap: positions are differences
// of sequence numbers, which stay below 2^32). Slots live in fixed-size
// chunks, so evicting from the front frees memory chunk by chunk and the
// queue is never more than two chunks larger than what it holds.
type slotQueue struct {
	chunks [][]slot
	base   uint32 // sequence number of chunks[0][0]
	head   uint32 // oldest live slot
	next   uint32 // what the next push gets
}

// queueChunk slots of 48 bytes fill 64 KiB (eight of the Go runtime's
// 8 KiB pages) to within 16 bytes.
const queueChunk = 1365

func (q *slotQueue) len() int { return int(q.next - q.head) }

func (q *slotQueue) at(seq uint32) *slot {
	i := seq - q.base
	return &q.chunks[i/queueChunk][i%queueChunk]
}

func (q *slotQueue) push(s slot) uint32 {
	if int(q.next-q.base) == len(q.chunks)*queueChunk {
		q.chunks = append(q.chunks, make([]slot, queueChunk))
	}
	seq := q.next
	q.next++
	*q.at(seq) = s
	return seq
}

// pop removes the oldest slot. The queue must not be empty.
func (q *slotQueue) pop() slot {
	s := *q.at(q.head)
	q.head++
	if q.head-q.base == queueChunk {
		q.chunks[0] = nil
		q.chunks = q.chunks[1:]
		q.base += queueChunk
	}
	return s
}

func packKey(k access.TripKey) tripKey {
	return tripKey{zone: int32(k.Zone), dest: int32(k.Dest), start: int32(k.Start)}
}

func (k tripKey) unpack() access.TripKey {
	return access.TripKey{Zone: int(k.zone), Dest: graph.NodeID(k.dest), Start: gtfs.Seconds(k.start)}
}

func packPrice(p access.TripPrice) entry {
	j := p.Journey
	return entry{
		depart: int32(j.Depart), arrive: int32(j.Arrive),
		accessWalk: float32(j.AccessWalk), egressWalk: float32(j.EgressWalk),
		transferWalk: float32(j.TransferWalk), wait: float32(j.Wait),
		inVehicle: float32(j.InVehicle), fare: float32(j.Fare),
		boardings: int16(j.Boardings), reachable: p.Reachable,
	}
}

func (e entry) price() access.TripPrice {
	return access.TripPrice{Reachable: e.reachable, Journey: router.Journey{
		Depart: gtfs.Seconds(e.depart), Arrive: gtfs.Seconds(e.arrive),
		AccessWalk: float64(e.accessWalk), EgressWalk: float64(e.egressWalk),
		TransferWalk: float64(e.transferWalk), Wait: float64(e.wait),
		InVehicle: float64(e.inVehicle), Fare: float64(e.fare),
		Boardings: int(e.boardings),
	}}
}

// Bank is the shared store. The zero value is not usable; call New.
type Bank struct {
	capacity int

	mu       sync.Mutex
	segments map[SegmentKey]*Segment
	order    []*Segment        // attach order; order[0] is the eviction victim
	floor    map[string]uint64 // per-city retire floor: epochs below it attach detached

	entries atomic.Int64 // live entries across attached segments

	hits, misses, deposits, evicted atomic.Int64
	seeded, retired                 atomic.Int64
}

// New builds a bank.
func New(cfg Config) *Bank {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Bank{
		capacity: cfg.Capacity,
		segments: make(map[SegmentKey]*Segment),
		floor:    make(map[string]uint64),
	}
}

// Segment returns the store for one engine generation, creating it on
// first use. Epochs already retired by RetireBelow come back detached —
// an in-flight run that acquired an old engine right before a swap can
// still drain and (no-op) deposit without resurrecting the retired epoch.
func (b *Bank) Segment(city string, epoch uint64) *Segment {
	key := SegmentKey{City: city, Epoch: epoch}
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.segments[key]; ok {
		return s
	}
	s := &Segment{bank: b, key: key, index: make(map[tripKey]uint32)}
	if epoch < b.floor[city] {
		s.detached = true
		return s
	}
	b.segments[key] = s
	b.order = append(b.order, s)
	mSegments.Set(float64(len(b.order)))
	return s
}

// RetireBelow detaches every segment of the city with an epoch below the
// given one and returns the number of entries dropped from capacity.
// Called by the registry when a new epoch installs.
func (b *Bank) RetireBelow(city string, epoch uint64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch > b.floor[city] {
		b.floor[city] = epoch
	}
	dropped := 0
	kept := b.order[:0]
	for _, s := range b.order {
		if s.key.City == city && s.key.Epoch < epoch {
			dropped += s.detach()
			delete(b.segments, s.key)
			continue
		}
		kept = append(kept, s)
	}
	b.order = kept
	if dropped > 0 {
		b.entries.Add(int64(-dropped))
		b.retired.Add(int64(dropped))
		mRetired.Add(int64(dropped))
		mEntries.Set(float64(b.entries.Load()))
	}
	mSegments.Set(float64(len(b.order)))
	return dropped
}

// CarryForward copies the {city, from} segment's entries into
// the {city, to} segment and returns the number seeded. Use only when the
// new epoch's engine provably prices every trip identically (a scenario
// apply whose batch touched no transit). The source segment is left
// intact; the caller typically RetireBelow's it right after.
func (b *Bank) CarryForward(city string, from, to uint64) int {
	b.mu.Lock()
	src, ok := b.segments[SegmentKey{City: city, Epoch: from}]
	b.mu.Unlock()
	if !ok || from == to {
		return 0
	}
	dst := b.Segment(city, to)
	src.mu.RLock()
	deps := make([]access.TripDeposit, 0, src.slots.len())
	for seq := src.slots.head; seq != src.slots.next; seq++ {
		sl := src.slots.at(seq)
		deps = append(deps, access.TripDeposit{Key: sl.key.unpack(), Price: sl.price()})
	}
	src.mu.RUnlock()
	n := dst.deposit(deps, true)
	b.seeded.Add(int64(n))
	mSeeded.Add(int64(n))
	return n
}

// evictOver brings the bank back under capacity by dropping the oldest
// attached segment's oldest entries first.
func (b *Bank) evictOver() {
	b.mu.Lock()
	defer b.mu.Unlock()
	over := b.entries.Load() - int64(b.capacity)
	for i := 0; over > 0 && i < len(b.order); i++ {
		n := b.order[i].evictOldest(over)
		if n == 0 {
			continue
		}
		b.entries.Add(int64(-n))
		b.evicted.Add(int64(n))
		mEvicted.Add(int64(n))
		over -= int64(n)
	}
	mEntries.Set(float64(b.entries.Load()))
}

// SegmentStats describes one attached segment for /v1/stats.
type SegmentStats struct {
	SegmentKey
	Entries int `json:"entries"`
}

// Stats is a point-in-time view of the bank, shaped for the /v1/stats
// bank block.
type Stats struct {
	Capacity int            `json:"capacity"`
	Entries  int64          `json:"entries"`
	Hits     int64          `json:"hits"`
	Misses   int64          `json:"misses"`
	Deposits int64          `json:"deposits"`
	Evicted  int64          `json:"evicted"`
	Seeded   int64          `json:"seeded"`
	Retired  int64          `json:"retired"`
	Segments []SegmentStats `json:"segments"`
}

// Stats snapshots the bank's counters and per-segment sizes.
func (b *Bank) Stats() Stats {
	st := Stats{
		Capacity: b.capacity,
		Entries:  b.entries.Load(),
		Hits:     b.hits.Load(),
		Misses:   b.misses.Load(),
		Deposits: b.deposits.Load(),
		Evicted:  b.evicted.Load(),
		Seeded:   b.seeded.Load(),
		Retired:  b.retired.Load(),
	}
	b.mu.Lock()
	for _, s := range b.order {
		st.Segments = append(st.Segments, SegmentStats{SegmentKey: s.key, Entries: s.len()})
	}
	b.mu.Unlock()
	sort.Slice(st.Segments, func(i, j int) bool {
		a, c := st.Segments[i], st.Segments[j]
		if a.City != c.City {
			return a.City < c.City
		}
		return a.Epoch < c.Epoch
	})
	return st
}

// Segment is one {city, epoch} partition. It implements access.TripBank
// and is handed to queries by the serving layer; a handle stays usable
// (drains keep working, deposits no-op) after the segment is retired.
type Segment struct {
	bank *Bank
	key  SegmentKey

	mu       sync.RWMutex
	detached bool
	// slots are the entries, oldest first; index finds a key's slot by its
	// sequence number. Every live key is in both exactly once.
	slots slotQueue
	index map[tripKey]uint32
}

// Drain implements access.TripBank.
func (s *Segment) Drain(k access.TripKey) (access.TripPrice, bool) {
	b := s.bank
	var e entry
	s.mu.RLock()
	seq, ok := s.index[packKey(k)]
	if ok {
		e = s.slots.at(seq).entry
	}
	s.mu.RUnlock()
	if !ok {
		b.misses.Add(1)
		mMisses.Add(1)
		return access.TripPrice{}, false
	}
	b.hits.Add(1)
	mHits.Add(1)
	return e.price(), true
}

// Deposit implements access.TripBank. Deposits into a detached segment
// are dropped — the run that produced them executed on a generation that
// no newer query will ever drain.
func (s *Segment) Deposit(deps []access.TripDeposit) {
	s.deposit(deps, false)
}

func (s *Segment) deposit(deps []access.TripDeposit, seeding bool) int {
	if len(deps) == 0 {
		return 0
	}
	b := s.bank
	added := 0
	s.mu.Lock()
	if s.detached {
		s.mu.Unlock()
		return 0
	}
	for _, d := range deps {
		k, e := packKey(d.Key), packPrice(d.Price)
		if k.unpack() != d.Key || e.price() != d.Price {
			continue // would not drain as deposited
		}
		if seq, exists := s.index[k]; exists {
			s.slots.at(seq).entry = e // refreshed in place: it keeps its place in the queue
			continue
		}
		s.index[k] = s.slots.push(slot{key: k, entry: e})
		added++
	}
	s.mu.Unlock()
	if added > 0 {
		b.entries.Add(int64(added))
		mEntries.Set(float64(b.entries.Load()))
	}
	if !seeding {
		b.deposits.Add(int64(len(deps)))
		mDeposits.Add(int64(len(deps)))
	}
	if b.entries.Load() > int64(b.capacity) {
		b.evictOver()
	}
	return added
}

// detach marks the segment retired and returns how many live entries it
// held. Entries stay readable for in-flight holders; the maps are
// reclaimed when the last handle drops. Called with the bank's mu held.
func (s *Segment) detach() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detached = true
	return s.slots.len()
}

// evictOldest drops up to max entries in insertion order and returns how
// many were dropped.
func (s *Segment) evictOldest(max int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for int64(n) < max && s.slots.len() > 0 {
		delete(s.index, s.slots.pop().key)
		n++
	}
	return n
}

func (s *Segment) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.slots.len()
}
