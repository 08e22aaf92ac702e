package repstore

import (
	"fmt"
	"sync"

	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// Cache is a bounded LRU over records of a Store, keyed by (xform.Transform
// value, index) with the zero Transform standing for the full-size source,
// so no lookup builds a string. Every entry is the record as stored — one
// byte per sample, a quarter of its float32 expansion — source image and
// pre-materialized representation alike: the engine derives a
// representation from a source's bytes (xform.Transform.AppendRecord) and
// expands a served one into a buffer of its own.
// Query execution in the ONGOING and ARCHIVE scenarios re-reads the same
// records across predicates and repeat queries; the cache turns those
// re-reads into memory hits while bounding resident bytes. Safe for
// concurrent use.
type Cache struct {
	store *Store

	mu  sync.Mutex
	lru *lruCore
}

// CacheStats is a point-in-time snapshot of a cache's counters. Hits,
// Misses and EvictedBytes are cumulative since construction; ResidentBytes
// is the current footprint. Callers subtract two snapshots to attribute
// cache work to a single query — exact when the query has the cache to
// itself, approximate when concurrent queries share it (the counters are
// cache-global).
type CacheStats struct {
	Hits          int64
	Misses        int64
	EvictedBytes  int64
	ResidentBytes int64
}

// NewCache wraps store with a cache holding up to capacityBytes of resident
// records, each charged its stored size: a 64×64 RGB source is 12 KiB, a
// 16×16 gray representation 266 bytes.
func NewCache(store *Store, capacityBytes int64) (*Cache, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("repstore: cache capacity must be positive, got %d", capacityBytes)
	}
	return &Cache{store: store, lru: newLRUCore(capacityBytes)}, nil
}

// Record returns full-size image i as stored, from cache when possible. A
// miss is one read into one exact-size slice the cache then owns; the
// returned view is shared with every other caller and must not be written.
func (c *Cache) Record(i int) (img.Record, error) {
	return c.get(cacheKey{idx: i}, func() (img.Record, error) {
		var owned []byte
		return c.store.SourceRecord(i, &owned)
	})
}

// Source returns full-size image i decoded into a fresh image, reading the
// record from cache when possible (hits and misses count record residency).
func (c *Cache) Source(i int) (*img.Image, error) {
	rec, err := c.Record(i)
	if err != nil {
		return nil, err
	}
	return rec.Image(), nil
}

// RepRecord returns representation i of transform t as stored, from cache
// when possible, on Record's terms: a miss is one read into a slice the cache
// then owns, and the view is shared and must not be written.
func (c *Cache) RepRecord(i int, t xform.Transform) (img.Record, error) {
	return c.get(cacheKey{rep: t, idx: i}, func() (img.Record, error) {
		var owned []byte
		return c.store.RepRecord(i, t, &owned)
	})
}

// Rep returns representation i of transform t decoded into a fresh image:
// RepRecord, counted as the same hit or miss.
func (c *Cache) Rep(i int, t xform.Transform) (*img.Image, error) {
	rec, err := c.RepRecord(i, t)
	if err != nil {
		return nil, err
	}
	return rec.Image(), nil
}

func (c *Cache) get(key cacheKey, load func() (img.Record, error)) (img.Record, error) {
	c.mu.Lock()
	if v, ok := c.lru.lookup(key); ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()

	// Load outside the lock; concurrent misses on the same key may load
	// twice, which is wasteful but correct (records are immutable, and
	// insert keeps whichever copy got there first).
	v, err := load()
	if err != nil {
		return img.Record{}, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.insert(key, v), nil
}

// Stats reports the cache's counters — the one ledger of its traffic and
// footprint.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.stats()
}

// HasSource reports whether the stored record of image i is resident — using
// it costs no disk read — without promoting it or counting a hit or miss: the
// query planner's source-cache probe.
func (c *Cache) HasSource(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.contains(cacheKey{idx: i})
}
