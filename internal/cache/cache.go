// Package cache provides the query-result cache behind Matcher sessions and
// the serving daemon: a fixed-capacity LRU keyed by canonical query
// fingerprints, with singleflight admission so that N concurrent identical
// queries cost exactly one evaluation and share its result. Every engine in
// this module is deterministic, which is what makes result caching sound: a
// cached value is indistinguishable from a fresh evaluation.
package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a snapshot of cache activity. Misses counts admitted
// evaluations — each miss runs the loader exactly once — while Coalesced
// counts callers that piggybacked on an evaluation already in flight and
// Hits counts callers served from a stored entry. Hits + Misses + Coalesced
// equals the number of Do/DoStatus calls. Advanced counts entries installed
// by the commit-time advance pass (PutAdvanced); Carried counts the subset
// of those the pass carried over without re-evaluation (AddCarried); Seeded
// counts admitted evaluations that reported containment seeding.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	Advanced  uint64
	Carried   uint64
	Seeded    uint64
	Entries   int
}

// Outcome describes how one Do/DoStatus call was served; the serving layer
// reports it verbatim in query responses.
type Outcome string

const (
	// OutcomeHit: served from a stored entry.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss: the caller (or the leader it coalesced on) ran the loader
	// cold.
	OutcomeMiss Outcome = "miss"
	// OutcomeAdvanced: served from an entry the commit-time advance pass
	// installed, on its first hit since installation (later hits decay to
	// OutcomeHit — the entry is then just a warm entry).
	OutcomeAdvanced Outcome = "advanced"
	// OutcomeSeeded: the loader ran but reported containment seeding from a
	// cached superset entry.
	OutcomeSeeded Outcome = "seeded"
)

// entry is one stored key/value pair; list elements carry *entry. advanced
// marks an entry installed by PutAdvanced and is cleared on its first hit,
// so exactly one caller observes OutcomeAdvanced per advance.
type entry struct {
	key      string
	val      any
	advanced bool
}

// flight is one in-progress evaluation that followers wait on; outcome is
// the leader's, mirrored to every coalesced caller.
type flight struct {
	done    chan struct{}
	val     any
	err     error
	outcome Outcome
}

// Cache is a fixed-capacity LRU with singleflight admission, safe for
// concurrent use. The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element holding *entry
	inflight map[string]*flight
	stats    Stats
}

// New returns a cache holding at most capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Do returns the value stored under key, evaluating fn on a miss. At most
// one evaluation per key runs at a time: concurrent callers of a missing
// key block until the leader's fn returns, then share its result. A
// successful value is stored (evicting the least recently used entry past
// capacity); an error is delivered to the leader and every waiter but is
// not cached, so the next caller retries.
func (c *Cache) Do(key string, fn func() (any, error)) (any, error) {
	//lint:allow verkey internal delegation: key discipline is the admission caller's, enforced at their call sites
	v, _, err := c.DoStatus(key, func() (any, bool, error) {
		v, err := fn()
		return v, false, err
	})
	return v, err
}

// DoStatus is Do with provenance: the loader additionally reports whether
// its evaluation was containment-seeded from a cached superset entry, and
// the call returns how it was served (hit, miss, advanced or seeded).
// Coalesced callers are reported with their leader's outcome.
func (c *Cache) DoStatus(key string, fn func() (any, bool, error)) (any, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		en := el.Value.(*entry)
		out := OutcomeHit
		if en.advanced {
			out = OutcomeAdvanced
			en.advanced = false
		}
		v := en.val
		c.mu.Unlock()
		return v, out, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		return f.val, f.outcome, f.err
	}
	f := &flight{done: make(chan struct{}), outcome: OutcomeMiss}
	c.inflight[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	// If fn panics, fail the flight instead of leaving it registered: the
	// waiters unblock with an error, the key stays uncached so the next
	// caller retries, and the panic propagates to the leader.
	settled := false
	defer func() {
		if settled {
			return
		}
		f.val, f.err = nil, fmt.Errorf("cache: evaluation of key %q panicked", key)
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()

	var seeded bool
	f.val, seeded, f.err = fn()
	settled = true

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		if seeded {
			f.outcome = OutcomeSeeded
			c.stats.Seeded++
		}
		c.store(key, f.val, false)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.outcome, f.err
}

// PutAdvanced installs an entry produced by the commit-time advance pass:
// the stored value is byte-identical to what a cold evaluation under key
// would produce, so it is admitted directly. The entry's first hit reports
// OutcomeAdvanced; later hits are ordinary hits.
func (c *Cache) PutAdvanced(key string, val any) {
	c.mu.Lock()
	c.stats.Advanced++
	c.store(key, val, true)
	c.mu.Unlock()
}

// AddCarried counts n advanced entries whose value the commit-time advance
// pass carried over from the previous version instead of re-evaluating. The
// entries themselves are installed through PutAdvanced.
func (c *Cache) AddCarried(n uint64) {
	c.mu.Lock()
	c.stats.Carried += n
	c.mu.Unlock()
}

// store inserts or refreshes key under the lock, evicting past capacity.
func (c *Cache) store(key string, val any, advanced bool) {
	if el, ok := c.items[key]; ok {
		en := el.Value.(*entry)
		en.val = val
		en.advanced = advanced
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, advanced: advanced})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
