package repstore

import (
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// pageShift sets the span of an index page: 1<<pageShift consecutive rows
// of one stored form. A page is 256 bytes of entry pointers, so a resident
// entry that is alone in its span costs the index one page at most.
const pageShift = 5

// lruCore is the LRU machinery behind Cache: a byte-budgeted recency list
// over cached records with hit/miss/eviction accounting, indexed by row. It
// is not goroutine-safe — the owning cache holds the lock.
//
// The index is one table per stored form (the zero Transform for the
// source, then each representation, in first-insert order), found by a
// linear scan of the few the store has. A table holds pages of entry
// pointers indexed by row>>pageShift; a page is allocated on the first insert
// into its span and released when the last entry in it is evicted, so the
// pages follow resident entries, not the store's row count. Looking a row
// up is two slice indexings — no hashing.
type lruCore struct {
	capacity int64 // resident-byte budget
	bytes    int64
	// root is the sentinel of an intrusive ring of entries: root.next is the
	// most recent, root.prev the eviction victim. An entry evicted to make
	// room is reused for the record that displaced it, and the page it
	// emptied (if any) for the next page needed, so a cache churning at
	// capacity allocates nothing of its own per insert.
	root   cacheEntry
	tables []*table
	spare  *page // the last page released, kept for the next one allocated

	hits    int64
	misses  int64
	evicted int64 // cumulative bytes pushed out by the LRU policy
	through int64 // cumulative records loaded without being admitted
}

// table indexes the resident entries of one stored form by row.
type table struct {
	form  xform.Transform // the zero Transform is the full-size source
	pages []*page         // [row>>pageShift]; nil where no row of the span is resident
	live  int             // non-nil pages
}

// page holds the entries of one span of rows.
type page struct {
	slot [1 << pageShift]*cacheEntry
	n    int // non-nil slots
}

type cacheEntry struct {
	prev, next *cacheEntry
	tab        *table
	row        int
	val        img.Record // as stored, charged its StoredBytes
}

func newLRUCore(capacityBytes int64) *lruCore {
	c := &lruCore{capacity: capacityBytes}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// table returns the table of form t, or nil when nothing of t was ever
// inserted.
func (c *lruCore) table(t xform.Transform) *table {
	for _, tab := range c.tables {
		if tab.form == t {
			return tab
		}
	}
	return nil
}

// get returns the resident entry of row, or nil. Any int is a valid
// argument: a negative or huge row falls outside every page.
func (tab *table) get(row int) *cacheEntry {
	if tab == nil {
		return nil
	}
	p := uint(row) >> pageShift
	if p >= uint(len(tab.pages)) || tab.pages[p] == nil {
		return nil
	}
	return tab.pages[p].slot[row&(1<<pageShift-1)]
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

// lookup resolves every resident row of idx under form t into dst, in idx
// order: each hit is promoted and counted, each miss counted and its dst
// slot zeroed. It returns the number of misses.
func (c *lruCore) lookup(t xform.Transform, idx []int, dst []img.Record) (missed int) {
	tab := c.table(t)
	for k, row := range idx {
		if e := tab.get(row); e != nil {
			c.touch(e)
			dst[k] = e.val
		} else {
			dst[k] = img.Record{}
			missed++
		}
	}
	c.hits += int64(len(idx) - missed)
	c.misses += int64(missed)
	return missed
}

// insert stores v as row of form t unless an entry is already resident (the
// resident record wins — records are immutable, so the bytes are identical),
// evicting from the cold end until the budget holds; the newest entry always
// stays, even when it alone exceeds the budget. It returns the resident
// record. row must be a row of the store: it sizes the table's page
// directory.
func (c *lruCore) insert(t xform.Transform, row int, v img.Record) img.Record {
	tab := c.table(t)
	if tab == nil {
		tab = &table{form: t}
		c.tables = append(c.tables, tab)
	}
	if e := tab.get(row); e != nil {
		c.touch(e)
		return e.val
	}
	var e *cacheEntry
	size := int64(v.StoredBytes())
	for c.bytes+size > c.capacity && c.root.prev != &c.root {
		e = c.root.prev
		c.unlink(e)
		c.remove(e)
		victim := int64(e.val.StoredBytes())
		c.bytes -= victim
		c.evicted += victim
	}
	if e == nil {
		e = new(cacheEntry)
	}
	e.tab, e.row, e.val = tab, row, v
	c.pushFront(e)
	c.put(e)
	c.bytes += size
	return v
}

// put indexes e under its row, allocating the row's page (or reusing the
// spare) when its span has no resident entry.
func (c *lruCore) put(e *cacheEntry) {
	tab, p := e.tab, e.row>>pageShift
	if p >= len(tab.pages) {
		tab.pages = append(tab.pages, make([]*page, p+1-len(tab.pages))...)
	}
	pg := tab.pages[p]
	if pg == nil {
		pg, c.spare = c.spare, nil
		if pg == nil {
			pg = new(page)
		}
		tab.pages[p] = pg
		tab.live++
	}
	pg.slot[e.row&(1<<pageShift-1)] = e
	pg.n++
}

// remove unindexes an evicted entry, releasing its page when it was the last
// entry there, and the table's page directory with its last page.
func (c *lruCore) remove(e *cacheEntry) {
	tab, p := e.tab, e.row>>pageShift
	pg := tab.pages[p]
	pg.slot[e.row&(1<<pageShift-1)] = nil
	if pg.n--; pg.n > 0 {
		return
	}
	tab.pages[p] = nil
	c.spare = pg
	if tab.live--; tab.live == 0 {
		tab.pages = nil
	}
}

// contains reports residency without promoting the entry or touching the
// hit/miss counters — the planner's probe, which must not perturb the very
// state it is estimating.
func (c *lruCore) contains(t xform.Transform, row int) bool {
	return c.table(t).get(row) != nil
}

func (c *lruCore) stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, EvictedBytes: c.evicted, ResidentBytes: c.bytes, ReadThrough: c.through}
}
