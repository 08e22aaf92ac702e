package repstore

import (
	"math/rand"
	"sync"
	"testing"

	"tahoma/internal/img"
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
