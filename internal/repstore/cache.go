package repstore

import (
	"context"
	"fmt"
	"slices"
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
// hashes nothing, and a batch of rows is resolved under one lock
// acquisition. Misses are loaded a run of rows at a time, one ReadAt per
// run.
//
// Query execution in the ONGOING and ARCHIVE scenarios re-reads the same
// records across predicates and repeat queries; the cache turns those
// re-reads into memory hits while bounding resident bytes. A large scan that
// will not reread what it loads — one that publishes the labels it computes —
// reads through instead (ReadThrough): it is served what is resident but
// admits nothing, so it neither evicts the records rereads hit nor leaves its
// own behind. Safe for concurrent use.
type Cache struct {
	store *Store

	mu  sync.Mutex
	lru *lruCore

	// runs holds the buffers an admitting load reads a run into before
	// copying each record out to a slice of its own.
	runs sync.Pool
}

// CacheStats is a point-in-time snapshot of a cache's counters. Hits,
// Misses, EvictedBytes and ReadThrough are cumulative since construction;
// ResidentBytes is the current footprint. Callers subtract two snapshots to
// attribute cache work to a single query — exact when the query has the
// cache to itself, approximate when concurrent queries share it (the
// counters are cache-global). The JSON names are /stats's store_cache
// section.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	EvictedBytes  int64 `json:"evicted_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	// ReadThrough counts the misses ReadThrough loaded without admitting
	// them: records a large scan read that never became resident.
	ReadThrough int64 `json:"read_through"`
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

// maxRunBytes bounds one run read. A 64-row engine batch of 32×32 RGB
// sources (3 KiB each) is one read; of 64×64 sources (12 KiB), three.
const maxRunBytes = 256 << 10

// maxGap is how many unrequested rows a run read may span between two
// rows it loads, reading their bytes and keeping none. Rows a statement
// classifies after a first predicate are often every other row; at one-row
// gaps a 64-row batch of alternating 32×32 sources read through is two
// reads instead of 64, ~120 µs instead of ~200 (2 vCPUs, records in the
// page cache). Wider gaps read more bytes than they save in calls.
const maxGap = 1

// Records reads the stored records of rows idx of form t — the zero
// Transform for the full-size sources, else a materialized representation —
// into dst[:len(idx)], from cache when possible, and admits what it loads.
//
// Every resident row is resolved and promoted under one lock acquisition, in
// idx order, and each hit or miss counted. The misses are then loaded in idx
// order outside the lock, each run of them with one ReadAt — misses next
// to each other in idx, on rising rows at most maxGap+1 apart, spanning at
// most maxRunBytes — and every record validated as
// Store.SourceRecord or Store.RepRecord validates it, fault points included.
// ctx is checked before every record, and a cancelled ctx stops the read
// with its error. A run read that fails as a whole (a row out of range, a
// failed ReadAt) is read again a row at a time, so a row that cannot be
// loaded leaves only its own dst slot empty (nil Pix) and the rest are still
// read; Records then returns the first such error. Each loaded record is
// copied into a slice of its own size, which the cache then owns, and the
// run inserted under one lock acquisition. A row repeated in one call that
// misses is loaded once per repetition, the copy resident first kept. The
// records are shared with every other caller and must not be written.
func (c *Cache) Records(ctx context.Context, t xform.Transform, idx []int, dst []img.Record) error {
	return c.load(ctx, t, idx, dst, true)
}

// ReadThrough is Records for a run that will not reread its records: hits
// are served, counted and promoted exactly as Records does, and misses are
// loaded the same way but never admitted — nothing is inserted or evicted,
// and ResidentBytes does not move. The records of one run read share one
// buffer the cache never references; they are immutable, and live as long
// as the caller holds them. Each is counted in CacheStats.ReadThrough.
func (c *Cache) ReadThrough(ctx context.Context, t xform.Transform, idx []int, dst []img.Record) error {
	return c.load(ctx, t, idx, dst, false)
}

// load is Records (admit) and ReadThrough (not): one loop, admission decided
// per call.
func (c *Cache) load(ctx context.Context, t xform.Transform, idx []int, dst []img.Record, admit bool) error {
	dst = dst[:len(idx)]
	c.mu.Lock()
	missed := c.lru.lookup(t, idx, dst)
	c.mu.Unlock()
	if missed == 0 {
		return nil
	}
	size := c.store.recordSize(t)
	perRun := max(1, maxRunBytes/size)
	var first error
	for k := 0; k < len(idx); {
		if dst[k].Pix != nil {
			k++
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		end, span := k+1, 1
		for end < len(idx) && dst[end].Pix == nil {
			step := idx[end] - idx[end-1]
			if step < 1 || step > maxGap+1 || span+step > perRun {
				break
			}
			span += step
			end++
		}
		err, ctxErr := c.loadRun(ctx, t, idx[k:end], dst[k:end], span, size, admit)
		if ctxErr != nil {
			return ctxErr
		}
		if first == nil {
			first = err
		}
		k = end
	}
	return first
}

// loadRun loads the missing rows run — rising, span rows from first to
// last — of form t into dst with one run read, or a row at a time when the
// run read fails, and admits them when admit is set. It returns the first
// row's error, and ctx's when it stopped the run.
func (c *Cache) loadRun(ctx context.Context, t xform.Transform, run []int, dst []img.Record, span, size int, admit bool) (first, ctxErr error) {
	var bufp *[]byte
	var buf []byte
	if admit {
		bufp, _ = c.runs.Get().(*[]byte)
		if bufp == nil {
			bufp = new([]byte)
		}
		if cap(*bufp) < span*size {
			*bufp = make([]byte, span*size)
		}
		buf = (*bufp)[:span*size]
		defer c.runs.Put(bufp)
	} else {
		buf = make([]byte, span*size)
	}
	runErr := c.store.readRun(t, run[0], buf)
	loaded := int64(0)
	for j, i := range run {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		var rec img.Record
		var err error
		if runErr != nil {
			var owned []byte
			rec, err = c.store.readRecord(t, i, &owned)
		} else if err = fireRecord(t, i); err == nil {
			at := (i - run[0]) * size
			raw := buf[at : at+size]
			if admit {
				raw = slices.Clone(raw)
			}
			rec, err = parseRecord(t, i, raw)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		dst[j] = rec
		loaded++
	}
	// Concurrent misses on the same row may load it twice, which is wasteful
	// but correct: records are immutable, and insert keeps whichever copy got
	// there first.
	c.mu.Lock()
	if admit {
		for j, i := range run {
			if dst[j].Pix != nil {
				dst[j] = c.lru.insert(t, i, dst[j])
			}
		}
	} else {
		c.lru.through += loaded
	}
	c.mu.Unlock()
	return first, ctxErr
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
