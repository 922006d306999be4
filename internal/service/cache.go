package service

import (
	"container/list"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/metrics"
)

// cache is the daemon's one store of finished results: a
// content-addressed map keyed by Spec.Key, refcounted like the packed
// tables of gpudw.PackedDB. Every done job pins its key's entry until
// its first delivery through Result or Payload; an entry nobody pins is
// idle and sits on an LRU list of at most cap entries, so cap bounds
// the results held for no one. cap < 0 disables cross-job hits: idle
// entries are dropped at once, but pinned ones still deliver.
//
// Entries are immutable once inserted (the solver is deterministic, so
// a key fully determines the field); readers share the stored pointer
// and must not mutate it. The cache has no lock of its own: the
// manager's mutex guards it.
type cache struct {
	cap     int
	idle    *list.List // front = most recent; values are *cacheEntry
	entries map[string]*cacheEntry
	bytes   int64

	gEntries, gBytes *metrics.Gauge
}

type cacheEntry struct {
	key  string
	divQ *field.CC[float64]
	pins int
	el   *list.Element // position on idle; nil while pinned
}

func newCache(capacity int, reg *metrics.Registry) *cache {
	return &cache{
		cap: capacity, idle: list.New(), entries: make(map[string]*cacheEntry),
		gEntries: reg.Gauge("rmcrtd_results_resident", "finished results held in memory: pinned until first delivery, plus at most -cache idle ones"),
		gBytes:   reg.Gauge("rmcrtd_results_resident_bytes", "divQ bytes of the finished results held in memory"),
	}
}

// get returns key's result, bumping an idle entry's recency; nil once
// the result has been evicted.
func (c *cache) get(key string) *field.CC[float64] {
	e := c.entries[key]
	if e == nil {
		return nil
	}
	if e.el != nil {
		c.idle.MoveToFront(e.el)
	}
	return e.divQ
}

// hit is get for a new submission: a cross-job cache hit, never when
// hits are disabled.
func (c *cache) hit(key string) *field.CC[float64] {
	if c.cap < 0 {
		return nil
	}
	return c.get(key)
}

// pin takes one reference on key's entry, inserting divQ when the key
// has none (an existing entry keeps its field: equal keys are equal
// bits).
func (c *cache) pin(key string, divQ *field.CC[float64]) {
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{key: key, divQ: divQ}
		c.entries[key] = e
		c.bytes += resultBytes(divQ)
		c.sync()
	}
	if e.el != nil {
		c.idle.Remove(e.el)
		e.el = nil
	}
	e.pins++
}

// unpin drops one reference on key's entry, which a pin must hold.
// The last one makes it the most recent idle entry and evicts the least
// recent beyond cap. It returns the number of evictions.
func (c *cache) unpin(key string) int {
	e := c.entries[key]
	if e.pins--; e.pins > 0 {
		return 0
	}
	e.el = c.idle.PushFront(e)
	evicted := 0
	for c.idle.Len() > max(c.cap, 0) {
		old := c.idle.Remove(c.idle.Back()).(*cacheEntry)
		delete(c.entries, old.key)
		c.bytes -= resultBytes(old.divQ)
		evicted++
	}
	c.sync()
	return evicted
}

func (c *cache) sync() {
	c.gEntries.Set(int64(len(c.entries)))
	c.gBytes.Set(c.bytes)
}

// resultBytes is the memory a result's values take.
func resultBytes(divQ *field.CC[float64]) int64 { return 8 * int64(len(divQ.Data())) }
