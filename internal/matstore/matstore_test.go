package matstore

import (
	"math/rand"
	"testing"

	"tahoma/internal/bitset"
)

// publish fills an n-row overlay with label(i) wherever have(i) and publishes
// it under k — how every writer reaches a Store.
func publish(s *Store, k Key, n int, have func(i int) bool, label func(i int) bool) {
	fresh := NewColumn()
	fresh.Grow(n)
	for i := 0; i < n; i++ {
		if have(i) {
			fresh.SetLabel(i, label(i))
		}
	}
	s.Publish(k, fresh, nil)
}

func all(int) bool { return true }

func TestColumnBasics(t *testing.T) {
	c := NewColumn()
	c.Grow(100)
	if c.Len() != 100 || c.Coverage() != 0 {
		t.Fatalf("fresh column: len %d coverage %d", c.Len(), c.Coverage())
	}
	c.SetLabel(3, true)
	c.SetLabel(64, false)
	if !c.Valid(3) || !c.Valid(64) || c.Valid(4) {
		t.Fatal("validity bits wrong")
	}
	if !c.Label(3) || c.Label(64) {
		t.Fatal("label bits wrong")
	}
	if c.Coverage() != 2 {
		t.Fatalf("coverage %d, want 2", c.Coverage())
	}
	if got := c.InvalidN(100, 3); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("InvalidN(100, 3) = %v", got)
	}
	if got := len(c.InvalidN(100, -1)); got != 98 {
		t.Fatalf("InvalidN(100, -1) returned %d rows, want 98", got)
	}
	// Rows past the column's end have no label either.
	if got := c.InvalidN(103, -1); len(got) != 101 || got[100] != 102 {
		t.Fatalf("InvalidN past the end: %d rows", len(got))
	}
}

// TestColumnLiveSetOps: Hits, Covers, ClearValid and Narrow against a live
// set longer than the column — the rows past its end are simply unlabeled.
func TestColumnLiveSetOps(t *testing.T) {
	c := NewColumn()
	c.Grow(70)
	for i := 0; i < 70; i += 2 {
		c.SetLabel(i, i%4 == 0)
	}
	live := bitset.New(200)
	for _, i := range []int{0, 1, 2, 68, 69, 70, 130, 199} {
		live.Set(i)
	}
	if got := c.Hits(live); got != 3 {
		t.Fatalf("Hits = %d, want 3 (rows 0, 2, 68)", got)
	}
	if c.Covers(live) {
		t.Fatal("Covers a live set with unlabeled rows")
	}
	need := live.Clone()
	c.ClearValid(need)
	if got := need.AppendMembers(nil); len(got) != 5 || got[0] != 1 || got[1] != 69 || got[4] != 199 {
		t.Fatalf("ClearValid left %v", got)
	}
	covered := bitset.New(200)
	covered.Set(0)
	covered.Set(2)
	covered.Set(68)
	if !c.Covers(covered) {
		t.Fatal("Covers rejects a live set it labels entirely")
	}
	pos := live.Clone()
	c.Narrow(pos, false)
	if got := pos.AppendMembers(nil); len(got) != 2 || got[0] != 0 || got[1] != 68 {
		t.Fatalf("AND narrow past the end: %v", got)
	}
	neg := live.Clone()
	c.Narrow(neg, true)
	if neg.Get(0) || neg.Get(68) || !neg.Get(2) || !neg.Get(199) {
		t.Fatalf("ANDNOT narrow past the end: %v", neg.AppendMembers(nil))
	}
}

// TestPublishVersions: Publish installs a new frozen version and leaves the
// one readers pinned untouched; the all-valid watermark advances at
// publication, so a reader's InvalidN never writes.
func TestPublishVersions(t *testing.T) {
	s := New()
	k := Key{"cloak", "c1"}
	publish(s, k, 64, all, func(i int) bool { return i%2 == 0 })
	v1 := s.Columns().Get(k)
	if v1.prefix != 64 || v1.Coverage() != 64 {
		t.Fatalf("first version: prefix %d coverage %d, want 64/64", v1.prefix, v1.Coverage())
	}
	if got := v1.InvalidN(80, -1); len(got) != 16 || got[0] != 64 {
		t.Fatalf("InvalidN over a longer table: %v", got)
	}
	pinned := s.Columns()

	// First writer wins, and an overlay that adds nothing installs nothing.
	fresh := NewColumn()
	fresh.Grow(64)
	fresh.SetLabel(1, true)
	if got := s.Publish(k, fresh, nil); got != 0 || s.Columns().Get(k) != v1 {
		t.Fatalf("no-op publish adopted %d rows or replaced the version", got)
	}

	var rows []int
	publish(s, k, 80, func(i int) bool { return i >= 60 }, all)
	fresh = NewColumn()
	fresh.Grow(90)
	fresh.SetLabel(85, false)
	fresh.SetLabel(3, true) // already valid: must not win
	if got := s.Publish(k, fresh, func(row int, label bool) { rows = append(rows, row) }); got != 1 || len(rows) != 1 || rows[0] != 85 {
		t.Fatalf("publish adopted %d rows, emitted %v; want exactly row 85", got, rows)
	}
	v3 := s.Columns().Get(k)
	if v3.Len() != 90 || v3.prefix != 80 || v3.Coverage() != 81 || v3.Label(3) {
		t.Fatalf("latest version: len %d prefix %d coverage %d label(3) %v", v3.Len(), v3.prefix, v3.Coverage(), v3.Label(3))
	}
	if pinned.Get(k) != v1 || v1.Len() != 64 || v1.Coverage() != 64 {
		t.Fatal("a pinned version changed under its readers")
	}
	if got := pinned.Get(Key{"absent", "c"}); got.Len() != 0 || got.Coverage() != 0 {
		t.Fatal("absent key is not the empty column")
	}

	for name, write := range map[string]func(){
		"SetLabel":   func() { v3.SetLabel(0, true) },
		"Grow":       func() { v3.Grow(100) },
		"MergeDelta": func() { v3.MergeDelta(fresh, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a published column did not panic", name)
				}
			}()
			write()
		}()
	}
}

func TestColumnMergeFirstWriterWins(t *testing.T) {
	shared := NewColumn()
	shared.Grow(130)
	shared.SetLabel(5, true)
	shared.SetLabel(70, false)

	priv := shared.CopyN(130)
	priv.SetLabel(5, false) // conflicting write must NOT win
	priv.SetLabel(6, true)
	priv.SetLabel(129, true)

	// Shared grew past the snapshot meanwhile (Append during the query).
	shared.Grow(200)
	shared.SetLabel(150, true)

	if got := shared.MergeDelta(priv, nil); got != 2 {
		t.Fatalf("MergeDelta adopted %d rows, want 2", got)
	}
	if !shared.Label(5) {
		t.Fatal("first writer lost row 5")
	}
	if !shared.Valid(6) || !shared.Label(6) || !shared.Valid(129) || !shared.Label(129) {
		t.Fatal("fresh labels not adopted")
	}
	if !shared.Valid(150) || !shared.Label(150) {
		t.Fatal("post-snapshot row corrupted by merge")
	}
	if shared.Coverage() != 5 {
		t.Fatalf("coverage %d, want 5", shared.Coverage())
	}
}

// TestColumnMergeMatchesRowLoop cross-checks the word-parallel merge against
// a row-by-row reference on random columns.
func TestColumnMergeMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		privN := 1 + rng.Intn(n)
		shared, priv := NewColumn(), NewColumn()
		shared.Grow(n)
		priv.Grow(privN)
		refLabels, refValid := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				shared.SetLabel(i, rng.Intn(2) == 0)
				refLabels[i], refValid[i] = shared.Label(i), true
			}
		}
		for i := 0; i < privN; i++ {
			if rng.Intn(3) == 0 {
				priv.SetLabel(i, rng.Intn(2) == 0)
				if !refValid[i] {
					refLabels[i], refValid[i] = priv.Label(i), true
				}
			}
		}
		shared.MergeDelta(priv, nil)
		for i := 0; i < n; i++ {
			if shared.Valid(i) != refValid[i] || (refValid[i] && shared.Label(i) != refLabels[i]) {
				t.Fatalf("trial %d row %d: got (%v,%v) want (%v,%v)",
					trial, i, shared.Valid(i), shared.Label(i), refValid[i], refLabels[i])
			}
		}
	}
}

func TestColumnNarrow(t *testing.T) {
	c := NewColumn()
	c.Grow(10)
	for i := 0; i < 10; i++ {
		c.SetLabel(i, i%3 == 0)
	}
	live := bitset.New(10)
	for i := 0; i < 10; i++ {
		live.Set(i)
	}
	c.Narrow(live, false)
	if live.Count() != 4 || !live.Get(0) || !live.Get(9) || live.Get(1) {
		t.Fatalf("AND narrow: %v", live)
	}
	neg := bitset.New(10)
	for i := 0; i < 10; i++ {
		neg.Set(i)
	}
	c.Narrow(neg, true)
	if neg.Count() != 6 || neg.Get(0) || !neg.Get(1) {
		t.Fatalf("ANDNOT narrow: %v", neg)
	}
}

func TestStoreUsageAndHottest(t *testing.T) {
	s := New()
	a := Key{"cloak", "c1"}
	b := Key{"fence", "c2"}
	s.Touch(a)
	s.Touch(b)
	s.Touch(b)
	publish(s, b, 40, all, all)
	// b is hotter but fully covered; a is the analyzer target.
	k, ok := s.Hottest(s.Columns(), 40)
	if !ok || k != a {
		t.Fatalf("Hottest = %v/%v, want %v", k, ok, a)
	}
	publish(s, a, 40, all, func(int) bool { return false })
	if _, ok := s.Hottest(s.Columns(), 40); ok {
		t.Fatal("Hottest found a target with everything covered")
	}
}

func TestStoreInvalidate(t *testing.T) {
	s := New()
	k := Key{"cloak", "c1"}
	s.Touch(k)
	publish(s, k, 8, func(i int) bool { return i == 0 }, all)
	gen := s.Generation()
	s.Invalidate()
	if s.Generation() != gen+1 {
		t.Fatalf("generation %d, want %d", s.Generation(), gen+1)
	}
	if s.Coverage(k) != 0 {
		t.Fatal("columns survived invalidation")
	}
	if st := s.Stats(); len(st.Usage) != 1 || st.Usage[0].Touches != 1 {
		t.Fatalf("usage table lost on invalidate: %+v", st.Usage)
	}
}

func TestStoreStats(t *testing.T) {
	s := New()
	a, b := Key{"a", "c1"}, Key{"b", "c2"}
	s.Touch(a)
	s.Touch(b)
	s.Touch(b)
	publish(s, b, 100, func(i int) bool { return i < 30 }, all)
	s.RecordLookup(7, 3)
	s.RecordAnalyzer(16)
	st := s.Stats()
	if st.Columns != 1 || st.CoveredRows != 30 || st.Hits != 7 || st.Misses != 3 {
		t.Fatalf("stats: %+v", st)
	}
	if st.AnalyzerBatches != 1 || st.AnalyzerRows != 16 {
		t.Fatalf("analyzer stats: %+v", st)
	}
	if len(st.Usage) != 2 || st.Usage[0].Category != "b" || st.Usage[0].Covered != 30 {
		t.Fatalf("usage ordering: %+v", st.Usage)
	}
	if st.Bytes != s.Bytes() {
		t.Fatalf("footprint: %+v", st)
	}
}
