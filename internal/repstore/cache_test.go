package repstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/xform"
)

func cacheFixture(t *testing.T, n int) (*Store, []*img.Image) {
	t.Helper()
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(31))
	ims := make([]*img.Image, n)
	for i := range ims {
		ims[i] = randRGB(rng, 16)
	}
	if err := s.IngestAll(ims); err != nil {
		t.Fatal(err)
	}
	return s, ims
}

// srcRecord is the stored size of the fixture's 16×16 RGB sources — what a
// resident source is charged (header + one byte per sample).
const srcRecord = 10 + 3*16*16

func TestCacheHitsAndCorrectness(t *testing.T) {
	s, _ := cacheFixture(t, 4)
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// First read misses, second hits the resident record; each Source call
	// decodes its own image, with identical contents both times.
	a, err := c.Source(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Source(2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Source must decode a fresh image per call (the cache holds the record, not an image)")
	}
	direct, err := loadSource(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Pix {
		if a.Pix[i] != direct.Pix[i] || b.Pix[i] != direct.Pix[i] {
			t.Fatal("cached content differs from direct read")
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.ResidentBytes != srcRecord {
		t.Fatalf("stats: %+v", st)
	}
	// Record reads share the one resident copy.
	s1, err := c.Record(2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Record(2)
	if err != nil {
		t.Fatal(err)
	}
	if &s1.Pix[0] != &s2.Pix[0] {
		t.Fatal("second record read should return the resident bytes")
	}
	if s1.W != 16 || s1.H != 16 || s1.Mode != img.RGB || s1.StoredBytes() != srcRecord {
		t.Fatalf("record geometry %dx%d/%v, %d bytes", s1.W, s1.H, s1.Mode, s1.StoredBytes())
	}

	// Representation reads cache under a distinct key, as stored records too;
	// Rep decodes the resident record afresh on every call.
	r1, err := c.RepRecord(2, testTransforms[0])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RepRecord(2, testTransforms[0])
	if err != nil {
		t.Fatal(err)
	}
	if &r1.Pix[0] != &r2.Pix[0] {
		t.Fatal("rep read not cached")
	}
	if got, want := c.Stats().ResidentBytes, int64(srcRecord+r1.StoredBytes()); got != want {
		t.Fatalf("resident %d bytes, want the record and the rep (%d)", got, want)
	}
	im, err := c.Rep(2, testTransforms[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r1.Image().Pix {
		if im.Pix[i] != v {
			t.Fatalf("Rep sample %d = %v, the resident record decodes to %v", i, im.Pix[i], v)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	s, _ := cacheFixture(t, 8)
	// Capacity for two 16×16 RGB source records (778 bytes each) and change.
	const capacity = 2*srcRecord + 200
	c, err := NewCache(s, capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Source(i); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.ResidentBytes != 2*srcRecord {
		t.Fatalf("resident %d bytes, want two records (%d)", st.ResidentBytes, 2*srcRecord)
	}
	// 8 sources were loaded and 2 fit: the other 6 were evicted.
	if want := int64(6 * srcRecord); st.EvictedBytes != want {
		t.Fatalf("evicted %d bytes, want %d", st.EvictedBytes, want)
	}
	// Most recent entry must still hit.
	before := c.Stats()
	if _, err := c.Source(7); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatal("most recent entry was evicted")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	s, _ := cacheFixture(t, 3)
	c, err := NewCache(s, 2*srcRecord+100) // room for two sources
	if err != nil {
		t.Fatal(err)
	}
	mustGet := func(i int) {
		t.Helper()
		if _, err := c.Source(i); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(0)
	mustGet(1)
	mustGet(0) // refresh 0 so 1 is the LRU victim
	mustGet(2) // evicts 1
	h0 := c.Stats().Hits
	mustGet(0) // must still hit
	h1 := c.Stats().Hits
	if h1 != h0+1 {
		t.Fatal("entry 0 was evicted despite being refreshed")
	}
	m0 := c.Stats().Misses
	mustGet(1) // must miss (was evicted)
	m1 := c.Stats().Misses
	if m1 != m0+1 {
		t.Fatal("entry 1 should have been evicted")
	}
}

func TestCacheConcurrent(t *testing.T) {
	s, _ := cacheFixture(t, 6)
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				idx := rng.Intn(6)
				if rng.Intn(2) == 0 {
					if _, err := c.Source(idx); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Rep(idx, testTransforms[0]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 800 {
		t.Fatalf("accounting lost requests: %d + %d != 800", st.Hits, st.Misses)
	}
}

// TestCacheStatsPinned drives a deterministic access pattern and pins every
// counter exactly: the Stats() numbers feed execution reports and the bench
// JSON, so their arithmetic must not drift.
func TestCacheStatsPinned(t *testing.T) {
	s, _ := cacheFixture(t, 4)
	// Room for exactly two 16×16 RGB source records.
	c, err := NewCache(s, 2*srcRecord)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 0, 2, 0, 1} {
		// 0 miss, 1 miss, 0 hit, 2 miss(evicts 1), 0 hit, 1 miss(evicts 2).
		if _, err := c.Source(i); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	want := CacheStats{Hits: 2, Misses: 4, EvictedBytes: 2 * srcRecord, ResidentBytes: 2 * srcRecord}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestCacheByteAccounting: the cache charges each entry what it holds — a
// source and a representation alike their stored record, not a float32
// expansion — and HasSource reports record residency without touching the
// counters.
func TestCacheByteAccounting(t *testing.T) {
	s, _ := cacheFixture(t, 5)
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if c.HasSource(3) {
		t.Fatal("nothing is resident in a fresh cache")
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Record(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().ResidentBytes; got != 5*srcRecord {
		t.Fatalf("5 resident sources charge %d bytes, want Σ record lengths = %d", got, 5*srcRecord)
	}
	tr := testTransforms[0]
	rep, err := c.RepRecord(0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoredBytes() != tr.StoredBytes() {
		t.Fatalf("%s rep record is %d bytes, its stored size is %d", tr.ID(), rep.StoredBytes(), tr.StoredBytes())
	}
	if got, want := c.Stats().ResidentBytes, int64(5*srcRecord+tr.StoredBytes()); got != want {
		t.Fatalf("with one %s rep resident: %d bytes, want %d (reps are charged as stored)", tr.ID(), got, want)
	}
	before := c.Stats()
	if !c.HasSource(3) {
		t.Fatal("HasSource must report the resident record")
	}
	if c.Stats() != before {
		t.Fatal("HasSource moved the counters")
	}
}

// TestCacheHitAllocatesNothing: the cache key is the Transform value, not a
// formatted ID, and an entry is served as the resident record, so a rep or
// source hit allocates nothing.
func TestCacheHitAllocatesNothing(t *testing.T) {
	s, _ := cacheFixture(t, 2)
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTransforms[0]
	if _, err := c.RepRecord(1, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Record(1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.RepRecord(1, tr) }); n != 0 {
		t.Errorf("RepRecord hit allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Record(1) }); n != 0 {
		t.Errorf("Record hit allocates %v times", n)
	}
	ctx := context.Background()
	idx, dst := []int{1, 1}, make([]img.Record, 2)
	if n := testing.AllocsPerRun(100, func() { c.Records(ctx, tr, idx, dst) }); n != 0 {
		t.Errorf("Records hit on %s allocates %v times", tr.ID(), n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Records(ctx, xform.Transform{}, idx, dst) }); n != 0 {
		t.Errorf("Records hit on sources allocates %v times", n)
	}
}

// TestCacheSourceAndRepKeysDistinct: row i's stored record and its rep are
// two entries — the zero Transform keys the source — so caching one neither
// serves nor reports residency of the other.
func TestCacheSourceAndRepKeysDistinct(t *testing.T) {
	s, _ := cacheFixture(t, 2)
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTransforms[0]
	rep, err := c.RepRecord(0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if c.HasSource(0) {
		t.Fatal("a resident rep reports as the row's resident source")
	}
	rec, err := c.Record(0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("the record read after the rep read: stats %+v, want two misses", st)
	}
	if !c.HasSource(0) {
		t.Fatal("the source is not resident beside the rep")
	}
	if got := c.Stats().ResidentBytes; got != int64(rec.StoredBytes()+rep.StoredBytes()) {
		t.Fatalf("resident %d bytes, want record %d + rep %d", got, rec.StoredBytes(), rep.StoredBytes())
	}
	if again, err := c.RepRecord(0, tr); err != nil || &again.Pix[0] != &rep.Pix[0] {
		t.Fatalf("the rep was displaced by the source entry (%v)", err)
	}
}

// TestCacheDoubleMissKeepsOneCopy: readers missing the same record at once
// may each read it, but the cache keeps one copy, charges it once, and every
// reader ends up holding that copy.
func TestCacheDoubleMissKeepsOneCopy(t *testing.T) {
	s, _ := cacheFixture(t, 2)
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	recs := make([]img.Record, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rec, err := c.Record(1)
			if err != nil {
				t.Error(err)
				return
			}
			recs[g] = rec
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	st := c.Stats()
	if st.ResidentBytes != srcRecord || st.Hits+st.Misses != readers || st.Misses < 1 {
		t.Fatalf("stats %+v: want one resident record and %d counted reads", st, readers)
	}
	resident, err := c.Record(1)
	if err != nil {
		t.Fatal(err)
	}
	for g, rec := range recs {
		if &rec.Pix[0] != &resident.Pix[0] {
			t.Fatalf("reader %d holds a private copy, not the resident record", g)
		}
	}
}

func TestCacheValidation(t *testing.T) {
	s, _ := cacheFixture(t, 1)
	if _, err := NewCache(s, 0); err == nil {
		t.Fatal("zero capacity must error")
	}
	c, _ := NewCache(s, 1000)
	if _, err := c.Source(99); err == nil {
		t.Fatal("out-of-range index must propagate the store error")
	}
}

// TestCacheRecordsBatch: a batch read returns what the single reads return,
// counts one hit or miss per row, and promotes its hits in idx order before
// loading any miss.
func TestCacheRecordsBatch(t *testing.T) {
	s, _ := cacheFixture(t, 6)
	c, err := NewCache(s, 4*srcRecord) // room for four sources
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} {
		if _, err := c.Record(i); err != nil {
			t.Fatal(err)
		}
	}
	// 2 and 0 hit and are promoted in that order; 4 and 5 miss, and
	// inserting 5 evicts the coldest entry, 1.
	idx := []int{2, 4, 0, 5}
	dst := make([]img.Record, len(idx))
	if err := c.Records(context.Background(), xform.Transform{}, idx, dst); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 5 || st.EvictedBytes != srcRecord {
		t.Fatalf("stats %+v: want 2 hits, 3+2 misses and one eviction", st)
	}
	for k, i := range idx {
		want, err := c.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if &dst[k].Pix[0] != &want.Pix[0] {
			t.Fatalf("batch slot %d does not hold row %d's resident record", k, i)
		}
	}
	if c.HasSource(1) {
		t.Fatal("row 1 was the coldest entry and should have been evicted")
	}
}

// TestCacheOutOfRangeHarmless: a negative, past-Count or huge row, read
// alone or in a batch, returns the store's out-of-range error, inserts
// nothing and allocates no index page; the batch's other rows are still read.
func TestCacheOutOfRangeHarmless(t *testing.T) {
	s, _ := cacheFixture(t, 3)
	tr := testTransforms[0]
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	isRange := func(err error) bool { return err != nil && strings.Contains(err.Error(), "out of range") }
	for _, i := range []int{-1, math.MinInt, 3, 4, 1 << 20, math.MaxInt / 2, math.MaxInt} {
		if _, err := c.Record(i); !isRange(err) {
			t.Fatalf("Record(%d): %v, want the store's out-of-range error", i, err)
		}
		if _, err := c.RepRecord(i, tr); !isRange(err) {
			t.Fatalf("RepRecord(%d): %v, want the store's out-of-range error", i, err)
		}
		for _, form := range []xform.Transform{{}, tr} {
			dst := make([]img.Record, 1)
			if err := c.Records(context.Background(), form, []int{i}, dst); !isRange(err) || dst[0].Pix != nil {
				t.Fatalf("Records(%s, [%d]): %v, %d bytes: want the store's out-of-range error and no record", form.ID(), i, err, len(dst[0].Pix))
			}
		}
		if c.HasSource(i) {
			t.Fatalf("HasSource(%d) on a row the store does not have", i)
		}
	}
	if st := c.Stats(); st.ResidentBytes != 0 || st.Hits != 0 {
		t.Fatalf("out-of-range reads left stats %+v, want nothing resident", st)
	}
	if len(c.lru.tables) != 0 || c.lru.spare != nil {
		t.Fatalf("out-of-range reads built %d index tables", len(c.lru.tables))
	}
	// In a batch, the rows in range are read and the others left empty.
	idx := []int{1, math.MaxInt, -3, 2}
	dst := make([]img.Record, len(idx))
	if err := c.Records(context.Background(), tr, idx, dst); !isRange(err) {
		t.Fatalf("batch with out-of-range rows: %v", err)
	}
	for k, i := range idx {
		if inRange := i >= 0 && i < 3; (dst[k].Pix != nil) != inRange {
			t.Fatalf("batch slot %d (row %d): %d bytes", k, i, len(dst[k].Pix))
		}
	}
	if pages := c.lru.table(tr).live; pages != 1 {
		t.Fatalf("two in-range rows of one page hold %d index pages", pages)
	}
}

// TestCacheRecordsCancel: a cancelled ctx stops a batch before its first
// miss is loaded, and still resolves the rows already resident.
func TestCacheRecordsCancel(t *testing.T) {
	s, _ := cacheFixture(t, 3)
	c, err := NewCache(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Record(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]img.Record, 2)
	if err := c.Records(ctx, xform.Transform{}, []int{0, 1}, dst); err != context.Canceled {
		t.Fatalf("cancelled batch: %v, want context.Canceled", err)
	}
	if dst[0].Pix == nil || dst[1].Pix != nil {
		t.Fatal("a cancelled batch must keep its hits and load no miss")
	}
	if c.HasSource(1) {
		t.Fatal("a cancelled batch loaded a miss")
	}
}

// oracleLRU is the record cache's previous index — one Go map keyed by
// (form, row) beside the same recency ring — kept as the differential
// oracle of the row-paged index: both must hit, miss, evict and promote
// identically.
type oracleLRU struct {
	capacity int64
	bytes    int64
	root     oracleEntry
	items    map[cacheKey]*oracleEntry

	hits    int64
	misses  int64
	evicted int64
}

type cacheKey struct {
	rep xform.Transform // the zero Transform is the full-size source
	idx int
}

type oracleEntry struct {
	prev, next *oracleEntry
	key        cacheKey
	val        img.Record
}

func newOracleLRU(capacityBytes int64) *oracleLRU {
	c := &oracleLRU{capacity: capacityBytes, items: make(map[cacheKey]*oracleEntry)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *oracleLRU) unlink(e *oracleEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *oracleLRU) pushFront(e *oracleEntry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *oracleLRU) touch(e *oracleEntry) {
	c.unlink(e)
	c.pushFront(e)
}

func (c *oracleLRU) lookup(key cacheKey) (img.Record, bool) {
	if e, ok := c.items[key]; ok {
		c.touch(e)
		c.hits++
		return e.val, true
	}
	c.misses++
	return img.Record{}, false
}

func (c *oracleLRU) insert(key cacheKey, v img.Record) img.Record {
	if e, ok := c.items[key]; ok {
		c.touch(e)
		return e.val
	}
	var e *oracleEntry
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
		e = new(oracleEntry)
	}
	e.key, e.val = key, v
	c.pushFront(e)
	c.items[key] = e
	c.bytes += size
	return v
}

func (c *oracleLRU) stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, EvictedBytes: c.evicted, ResidentBytes: c.bytes}
}

// order lists the oracle's entries coldest first: its eviction order.
func (c *oracleLRU) order() []cacheKey {
	var keys []cacheKey
	for e := c.root.prev; e != &c.root; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}

// evictionOrder lists a cache's entries coldest first, as oracle keys.
func evictionOrder(c *Cache) []cacheKey {
	var keys []cacheKey
	for e := c.lru.root.prev; e != &c.lru.root; e = e.prev {
		keys = append(keys, cacheKey{rep: e.tab.form, idx: e.row})
	}
	return keys
}

// records is Cache.Records' protocol over the oracle index: every row looked
// up (hits promoted) in idx order, then each miss loaded from the store and
// inserted in idx order.
func (c *oracleLRU) records(s *Store, t xform.Transform, idx []int, dst []img.Record) error {
	for k, i := range idx {
		dst[k], _ = c.lookup(cacheKey{rep: t, idx: i})
	}
	var first error
	for k, i := range idx {
		if dst[k].Pix != nil {
			continue
		}
		var owned []byte
		var v img.Record
		var err error
		if t == (xform.Transform{}) {
			v, err = s.SourceRecord(i, &owned)
		} else {
			v, err = s.RepRecord(i, t, &owned)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		dst[k] = c.insert(cacheKey{rep: t, idx: i}, v)
	}
	return first
}

// TestCacheMatchesOracle drives the row-indexed cache and the map-keyed
// oracle through the same seeded random ops — single and batch reads of the
// sources and two representations, residency probes, rows past Count — at
// budgets from less than one record to no eviction at all, and after every
// op holds them to identical records, errors, Stats and eviction order.
func TestCacheMatchesOracle(t *testing.T) {
	const rows = 80 // spans three index pages
	s, _ := cacheFixture(t, rows)
	forms := []xform.Transform{{}, testTransforms[0], testTransforms[1]}
	ctx := context.Background()
	for _, budget := range []int64{100, srcRecord + 5, 3 * srcRecord, 12 * srcRecord, 1 << 20} {
		c, err := NewCache(s, budget)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newOracleLRU(budget)
		rng := rand.New(rand.NewSource(budget))
		row := func() int {
			switch r := rng.Intn(40); {
			case r == 0:
				return -1 - rng.Intn(3)
			case r == 1:
				return math.MaxInt
			case r < 4:
				return rows + rng.Intn(40)
			case r < 20:
				return rng.Intn(8) // a hot set, so the big budgets hit
			default:
				return rng.Intn(rows)
			}
		}
		for op := 0; op < 3000; op++ {
			form := forms[rng.Intn(len(forms))]
			var desc string
			var got, want []img.Record
			var gotErr, wantErr error
			switch rng.Intn(5) {
			case 0: // HasSource
				i := row()
				if c.HasSource(i) != (oracle.items[cacheKey{idx: i}] != nil) {
					t.Fatalf("budget %d op %d: HasSource(%d) disagrees with the oracle", budget, op, i)
				}
				desc = fmt.Sprintf("HasSource(%d)", i)
			case 1, 2: // a single read
				i := row()
				var rec img.Record
				if form == (xform.Transform{}) {
					rec, gotErr = c.Record(i)
				} else {
					rec, gotErr = c.RepRecord(i, form)
				}
				got, want = []img.Record{rec}, make([]img.Record, 1)
				wantErr = oracle.records(s, form, []int{i}, want)
				desc = fmt.Sprintf("read %s row %d", form.ID(), i)
			default: // a batch read
				idx := make([]int, 1+rng.Intn(12))
				for k := range idx {
					idx[k] = row()
				}
				got, want = make([]img.Record, len(idx)), make([]img.Record, len(idx))
				gotErr = c.Records(ctx, form, idx, got)
				wantErr = oracle.records(s, form, idx, want)
				desc = fmt.Sprintf("batch %s rows %v", form.ID(), idx)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("budget %d op %d (%s): error %v, oracle %v", budget, op, desc, gotErr, wantErr)
			}
			for k := range got {
				g, w := got[k], want[k]
				if g.W != w.W || g.H != w.H || g.Mode != w.Mode || !bytes.Equal(g.Pix, w.Pix) || (g.Pix == nil) != (w.Pix == nil) {
					t.Fatalf("budget %d op %d (%s): slot %d differs from the oracle", budget, op, desc, k)
				}
			}
			if got, want := c.Stats(), oracle.stats(); got != want {
				t.Fatalf("budget %d op %d (%s): stats %+v, oracle %+v", budget, op, desc, got, want)
			}
			gotOrder, wantOrder := evictionOrder(c), oracle.order()
			if fmt.Sprint(gotOrder) != fmt.Sprint(wantOrder) {
				t.Fatalf("budget %d op %d (%s): eviction order\n%v\noracle\n%v", budget, op, desc, gotOrder, wantOrder)
			}
		}
	}
}
