package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"accessquery/internal/core"
)

// len reports the number of live entries (including not-yet-collected
// expired ones).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// fakeClock is a manually-advanced clock for TTL and retention tests. It
// is mutex-guarded because manager workers read it from other goroutines.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func resultN(n int) answer { return answer{res: &core.Result{Fairness: float64(n)}} }

func TestCachePutGet(t *testing.T) {
	c := newResultCache(4, 0, nil)
	if _, ok := c.get("a", 0); ok {
		t.Error("hit on empty cache")
	}
	c.put("a", resultN(1))
	got, ok := c.get("a", 0)
	if !ok || got.res.Fairness != 1 {
		t.Fatalf("get = %v, %v", got, ok)
	}
	// Overwrite keeps one entry.
	c.put("a", resultN(2))
	if got, _ := c.get("a", 0); got.res.Fairness != 2 {
		t.Errorf("overwrite not visible: %v", got.res.Fairness)
	}
	if c.len() != 1 {
		t.Errorf("len = %d", c.len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, 0, nil)
	c.put("a", resultN(1))
	c.put("b", resultN(2))
	c.get("a", 0) // promote a; b is now least recently used
	c.put("c", resultN(3))
	if _, ok := c.get("b", 0); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.get("a", 0); !ok {
		t.Error("recently-used entry a evicted")
	}
	if _, ok := c.get("c", 0); !ok {
		t.Error("new entry c missing")
	}
}

func TestCacheTTL(t *testing.T) {
	clock := newFakeClock()
	c := newResultCache(4, time.Minute, clock.now)
	c.put("a", resultN(1))
	clock.advance(59 * time.Second)
	if _, ok := c.get("a", 0); !ok {
		t.Error("entry expired before TTL")
	}
	clock.advance(2 * time.Second)
	if _, ok := c.get("a", 0); ok {
		t.Error("entry served after TTL")
	}
	// Expired entries stay resident (until LRU eviction) so the circuit
	// breaker can serve them stale, with an honest age.
	if _, age, ok := c.getStale("a"); !ok {
		t.Error("expired entry gone from the stale path")
	} else if age != 61*time.Second {
		t.Errorf("stale age = %v, want 61s", age)
	}
	// Re-put restarts the clock.
	c.put("a", resultN(2))
	clock.advance(30 * time.Second)
	if _, ok := c.get("a", 0); !ok {
		t.Error("refreshed entry expired early")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1, 0, nil)
	c.put("a", resultN(1))
	if _, ok := c.get("a", 0); ok {
		t.Error("disabled cache returned a hit")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(8, time.Hour, nil)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%16)
				c.put(k, resultN(i))
				c.get(k, 0)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	close(done)
	if c.len() > 8 {
		t.Errorf("cache over capacity: %d", c.len())
	}
}
