package repstore

import (
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// lruCore is the LRU machinery behind Cache: a byte-budgeted recency list
// over cached records with hit/miss/eviction accounting. It is not
// goroutine-safe — the owning cache holds the lock.
type lruCore struct {
	capacity int64 // resident-byte budget
	bytes    int64
	// root is the sentinel of an intrusive ring of entries: root.next is the
	// most recent, root.prev the eviction victim. An entry evicted to make
	// room is reused for the record that displaced it, so a cache churning at
	// capacity allocates nothing of its own per insert.
	root  cacheEntry
	items map[cacheKey]*cacheEntry

	hits    int64
	misses  int64
	evicted int64 // cumulative bytes pushed out by the LRU policy
}

type cacheKey struct {
	rep xform.Transform // the zero Transform is the full-size source
	idx int
}

type cacheEntry struct {
	prev, next *cacheEntry
	key        cacheKey
	val        img.Record // as stored, charged its StoredBytes
}

func newLRUCore(capacityBytes int64) *lruCore {
	c := &lruCore{capacity: capacityBytes, items: make(map[cacheKey]*cacheEntry)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *lruCore) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *lruCore) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *lruCore) touch(e *cacheEntry) {
	c.unlink(e)
	c.pushFront(e)
}

// lookup returns the cached record for key and records a hit, or records a
// miss and reports false.
func (c *lruCore) lookup(key cacheKey) (img.Record, bool) {
	if e, ok := c.items[key]; ok {
		c.touch(e)
		c.hits++
		return e.val, true
	}
	c.misses++
	return img.Record{}, false
}

// insert stores v under key unless an entry is already resident (the
// resident record wins — records are immutable, so the bytes are identical),
// evicting from the cold end until the budget holds; the newest entry always
// stays, even when it alone exceeds the budget. It returns the resident record
// for key.
func (c *lruCore) insert(key cacheKey, v img.Record) img.Record {
	if e, ok := c.items[key]; ok {
		c.touch(e)
		return e.val
	}
	var e *cacheEntry
	size := int64(v.StoredBytes())
	for c.bytes+size > c.capacity && len(c.items) > 0 {
		e = c.root.prev
		c.unlink(e)
		delete(c.items, e.key)
		victim := int64(e.val.StoredBytes())
		c.bytes -= victim
		c.evicted += victim
	}
	if e == nil {
		e = new(cacheEntry)
	}
	e.key, e.val = key, v
	c.pushFront(e)
	c.items[key] = e
	c.bytes += size
	return v
}

// contains reports residency without promoting the entry or touching the
// hit/miss counters — the planner's probe, which must not perturb the very
// state it is estimating.
func (c *lruCore) contains(key cacheKey) bool {
	_, ok := c.items[key]
	return ok
}

func (c *lruCore) stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, EvictedBytes: c.evicted, ResidentBytes: c.bytes}
}
