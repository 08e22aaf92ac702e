package repstore

import (
	"context"
	"fmt"
	"sync"

	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// Cache is a bounded LRU over records of a Store. Every entry is the record
// as stored — one byte per sample, a quarter of its float32 expansion —
// source image and pre-materialized representation alike: the engine derives
// a representation from a source's bytes (xform.Transform.AppendRecord) and
// expands a served one into a buffer of its own. Entries are indexed by row,
// one table of row-indexed pages per stored form (see lruCore), so a lookup
// hashes nothing, and Records reads a whole batch of rows under one lock
// acquisition.
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

// Records reads the stored records of rows idx of form t — the zero
// Transform for the full-size sources, else a materialized representation —
// into dst[:len(idx)], from cache when possible.
//
// Every resident row is resolved and promoted under one lock acquisition, in
// idx order, and each hit or miss counted. The misses are then loaded in idx
// order outside the lock, one read each into an exact-size slice the cache
// then owns, and each inserted as it arrives; ctx is checked before every
// load, and a cancelled ctx stops the read with its error. A row that cannot
// be loaded (out of range, an injected fault) leaves its dst slot empty (nil
// Pix) and the rest are still read; Records then returns the first such
// error. A row repeated in one call that misses is loaded once per
// repetition, the copy resident first kept. The records are shared with
// every other caller and must not be written.
func (c *Cache) Records(ctx context.Context, t xform.Transform, idx []int, dst []img.Record) error {
	dst = dst[:len(idx)]
	c.mu.Lock()
	missed := c.lru.lookup(t, idx, dst)
	c.mu.Unlock()
	if missed == 0 {
		return nil
	}
	var first error
	for k, i := range idx {
		if dst[k].Pix != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var owned []byte
		var v img.Record
		var err error
		if t == (xform.Transform{}) {
			v, err = c.store.SourceRecord(i, &owned)
		} else {
			v, err = c.store.RepRecord(i, t, &owned)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		// Concurrent misses on the same row may load it twice, which is
		// wasteful but correct: records are immutable, and insert keeps
		// whichever copy got there first.
		c.mu.Lock()
		dst[k] = c.lru.insert(t, i, v)
		c.mu.Unlock()
	}
	return first
}

// Record returns full-size image i as stored: Records of one source row.
func (c *Cache) Record(i int) (img.Record, error) {
	return c.record(xform.Transform{}, i)
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

// RepRecord returns representation i of transform t as stored: Records of
// one row of t.
func (c *Cache) RepRecord(i int, t xform.Transform) (img.Record, error) {
	return c.record(t, i)
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

func (c *Cache) record(t xform.Transform, i int) (img.Record, error) {
	idx := [1]int{i}
	var dst [1]img.Record
	err := c.Records(context.Background(), t, idx[:], dst[:])
	return dst[0], err
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
	return c.lru.contains(xform.Transform{}, i)
}
