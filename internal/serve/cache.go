package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"accessquery/internal/core"
	"accessquery/internal/obs"
)

// resultCache is an LRU cache of engine results keyed by request
// fingerprint, with a per-entry TTL. Each entry remembers the engine epoch
// that computed it and a lookup names the epoch it wants, so there is one
// entry per fingerprint, the newest epoch's. Accessibility results are
// expensive to compute (seconds of SPQs) and reused across many consumers
// — dashboards, planners, repeated what-if runs — so even a small cache
// absorbs most of a realistic workload.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration // <= 0 means entries never expire
	ll    *list.List    // front = most recently used
	items map[string]*list.Element
	now   func() time.Time
}

// answer is what one successful run leaves behind. The cache entry and
// every job the run (or a later hit on the entry) answers share one.
type answer struct {
	res *core.Result
	// trace is the producing run's span tree, kept with the result so
	// cache-hit jobs can still answer trace and explain requests.
	trace *obs.TraceSummary
	// body memoises the result's wire encoding across those jobs.
	body *EncodedBody
}

// EncodedBody memoises the encoded form of one result, per include_zones
// value, for whichever layer writes responses: the first response that
// needs a form encodes it, every later one — the miss that produced the
// result, and each hit on its cache entry — writes the same bytes.
type EncodedBody struct {
	forms [2]atomic.Pointer[[]byte]
}

// Get returns the stored encoding for includeZones, calling encode to fill
// it on first use. Concurrent first uses may both encode; one result is
// kept. The returned bytes must not be modified.
func (b *EncodedBody) Get(includeZones bool, encode func() []byte) []byte {
	form := &b.forms[0]
	if includeZones {
		form = &b.forms[1]
	}
	if p := form.Load(); p != nil {
		return *p
	}
	enc := encode()
	if form.CompareAndSwap(nil, &enc) {
		return enc
	}
	return *form.Load()
}

type cacheEntry struct {
	key     string
	epoch   uint64 // the producing run's engine epoch, 0 when unstamped
	ans     answer
	stored  time.Time
	expires time.Time // zero when ttl <= 0
}

func newResultCache(capacity int, ttl time.Duration, now func() time.Time) *resultCache {
	if now == nil {
		now = time.Now
	}
	return &resultCache{
		cap:   capacity,
		ttl:   ttl,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		now:   now,
	}
}

// get returns the cached answer for key computed on epoch, promoting the
// entry to most recently used; epoch 0 accepts any epoch. Expired entries
// and other epochs' entries are misses here but are retained (until LRU
// eviction or a newer put) so getStale can serve them while the circuit
// breaker is open.
func (c *resultCache) get(key string, epoch uint64) (answer, bool) {
	if c.cap <= 0 {
		return answer{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return answer{}, false
	}
	ent := el.Value.(*cacheEntry)
	if epoch != 0 && ent.epoch != epoch {
		return answer{}, false
	}
	if !ent.expires.IsZero() && c.now().After(ent.expires) {
		return answer{}, false
	}
	c.ll.MoveToFront(el)
	return ent.ans, true
}

// getStale returns the entry for key regardless of expiry and epoch, with
// its age since it was stored. This is the circuit breaker's degraded read
// path: a stale answer with honest staleness metadata beats no answer
// while the engine is failing.
func (c *resultCache) getStale(key string) (answer, time.Duration, bool) {
	if c.cap <= 0 {
		return answer{}, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return answer{}, 0, false
	}
	ent := el.Value.(*cacheEntry)
	c.ll.MoveToFront(el)
	return ent.ans, c.now().Sub(ent.stored), true
}

// put stores a run's answer under key, evicting the least recently used
// entry when over capacity. Epochs only grow, so an answer from an older
// epoch than the stored one's, a run that raced a swap, is dropped.
func (c *resultCache) put(key string, ans answer) {
	if c.cap <= 0 {
		return
	}
	var epoch uint64
	if ans.res != nil {
		epoch = ans.res.Epoch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	stored := c.now()
	var expires time.Time
	if c.ttl > 0 {
		expires = stored.Add(c.ttl)
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		if epoch < ent.epoch {
			return
		}
		ent.epoch = epoch
		ent.ans = ans
		ent.stored = stored
		ent.expires = expires
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, epoch: epoch, ans: ans, stored: stored, expires: expires})
	c.items[key] = el
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}
