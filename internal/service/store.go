package service

import (
	"container/list"
	"fmt"
)

// store is the daemon's one refcounted, content-keyed set of shared
// immutable values — the retention pattern of the paper's level
// database, kept once. The packed-table cache holds its per-level
// tables here and the manager its finished results.
//
// An entry stays resident while pinned. An entry nobody pins is idle
// and sits on one LRU list; idle entries are evicted, least recently
// used first, while their summed cost exceeds the budget. The owner
// prices each entry when it inserts it: tables cost their bytes,
// results cost 1, so the budget is bytes for one and entries for the
// other.
//
// Values are shared, not copied: readers must not mutate them. The
// store has no lock of its own; its owner's mutex guards it.
type store[V any] struct {
	budget   int64
	idle     *list.List // front = most recently released; values are *storeEntry[V]
	entries  map[string]*storeEntry[V]
	cost     int64 // summed over every resident entry
	idleCost int64
}

type storeEntry[V any] struct {
	key  string
	val  V
	cost int64
	pins int
	el   *list.Element // position on idle; nil while pinned
}

// newStore creates a store keeping idle entries up to budget (negative
// counts as 0: an entry is dropped at its last unpin).
func newStore[V any](budget int64) *store[V] {
	return &store[V]{budget: max(budget, 0), idle: list.New(), entries: make(map[string]*storeEntry[V])}
}

// get returns key's value without pinning it, marking an idle entry
// most recently used; the zero V when the key is not resident.
func (s *store[V]) get(key string) (v V) {
	e := s.entries[key]
	if e == nil {
		return v
	}
	if e.el != nil {
		s.idle.MoveToFront(e.el)
	}
	return e.val
}

// pin takes one reference on key's resident entry and returns its
// value; ok is false, and nothing is pinned, when the key is absent.
func (s *store[V]) pin(key string) (v V, ok bool) {
	e := s.entries[key]
	if e == nil {
		return v, false
	}
	if e.el != nil {
		s.idle.Remove(e.el)
		e.el = nil
		s.idleCost -= e.cost
	}
	e.pins++
	return e.val, true
}

// insert pins key's entry, storing v at cost when the key has none. An
// existing entry keeps its value (equal keys hold equal values). It
// reports whether v was stored.
func (s *store[V]) insert(key string, v V, cost int64) bool {
	if _, ok := s.pin(key); ok {
		return false
	}
	s.entries[key] = &storeEntry[V]{key: key, val: v, cost: cost, pins: 1}
	s.cost += cost
	return true
}

// unpin drops one reference on key's entry. The last one makes the
// entry the most recently used idle one, then evicts idle entries past
// the budget; it returns the evicted values.
func (s *store[V]) unpin(key string) (evicted []V) {
	e := s.entries[key]
	if e == nil || e.pins <= 0 {
		panic(fmt.Sprintf("service: unpin of unpinned entry %q", key))
	}
	if e.pins--; e.pins > 0 {
		return nil
	}
	e.el = s.idle.PushFront(e)
	s.idleCost += e.cost
	for s.idleCost > s.budget {
		old := s.idle.Remove(s.idle.Back()).(*storeEntry[V])
		delete(s.entries, old.key)
		s.cost -= old.cost
		s.idleCost -= old.cost
		evicted = append(evicted, old.val)
	}
	return evicted
}
