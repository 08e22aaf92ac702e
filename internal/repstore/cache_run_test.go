package repstore

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// perRow reads rows idx of form t the way the cache read them before runs:
// one SourceRecord or RepRecord per row into a slice of its own, a failed
// row left empty, and the first error returned.
func perRow(s *Store, t xform.Transform, idx []int) ([]img.Record, error) {
	out := make([]img.Record, len(idx))
	var first error
	for k, i := range idx {
		var owned []byte
		var err error
		if t == (xform.Transform{}) {
			out[k], err = s.SourceRecord(i, &owned)
		} else {
			out[k], err = s.RepRecord(i, t, &owned)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return out, first
}

func sameRecords(t *testing.T, what string, got, want []img.Record) {
	t.Helper()
	for k := range want {
		g, w := got[k], want[k]
		if (g.Pix == nil) != (w.Pix == nil) || g.W != w.W || g.H != w.H || g.Mode != w.Mode || !bytes.Equal(g.Pix, w.Pix) {
			t.Fatalf("%s: slot %d is %dx%d/%v with %d bytes, a per-row read gives %dx%d/%v with %d", what, k,
				g.W, g.H, g.Mode, len(g.Pix), w.W, w.H, w.Mode, len(w.Pix))
		}
	}
}

// readMode is one way of loading a batch through a fresh cache.
type readMode struct {
	name  string
	admit bool
}

func (m readMode) read(c *Cache, t xform.Transform, idx []int, dst []img.Record) error {
	if m.admit {
		return c.Records(context.Background(), t, idx, dst)
	}
	return c.ReadThrough(context.Background(), t, idx, dst)
}

var readModes = []readMode{{"Records", true}, {"ReadThrough", false}}

// TestRecordsMatchPerRowReads: a batch loaded a run of rows per ReadAt —
// admitted or read through — is, byte for byte and error for error, what
// one SourceRecord or RepRecord per row returns: over consecutive rows, gaps,
// repeats, rows out of range and runs longer than one read, for the sources
// and a representation. Admitted records each own a slice of their own
// record's size; read-through ones are counted and never resident.
func TestRecordsMatchPerRowReads(t *testing.T) {
	const rows = 40
	s, _ := cacheFixture(t, rows)
	consecutive := make([]int, rows)
	for i := range consecutive {
		consecutive[i] = i
	}
	batches := map[string][]int{
		"consecutive":  consecutive,
		"gaps":         {1, 3, 4, 5, 9, 10, 11, 30},
		"repeats":      {2, 2, 3, 3, 3, 4, 2},
		"descending":   {7, 6, 5, 4},
		"out-of-range": {37, 38, 39, 40, 41, -1, 0, 1},
		"past-count":   {rows, rows + 1},
		"one":          {17},
	}
	for _, form := range []xform.Transform{{}, testTransforms[0], testTransforms[1]} {
		for name, idx := range batches {
			want, wantErr := perRow(s, form, idx)
			for _, m := range readModes {
				what := fmt.Sprintf("%s %s %s", m.name, form.ID(), name)
				c, err := NewCache(s, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]img.Record, len(idx))
				gotErr := m.read(c, form, idx, got)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, per-row reads give %v", what, gotErr, wantErr)
				}
				sameRecords(t, what, got, want)
				loaded := int64(0)
				for _, r := range want {
					if r.Pix != nil {
						loaded++
					}
				}
				st := c.Stats()
				if st.Misses != int64(len(idx)) || st.Hits != 0 {
					t.Fatalf("%s: stats %+v, want %d misses", what, st, len(idx))
				}
				if m.admit {
					if st.ReadThrough != 0 {
						t.Fatalf("%s: admitting read counted %d read-through records", what, st.ReadThrough)
					}
					for k, r := range got {
						if r.Pix != nil && cap(r.Pix) >= 2*len(r.Pix) {
							t.Fatalf("%s: slot %d's %d bytes sit in a %d-byte buffer, not a slice of their own", what, k, len(r.Pix), cap(r.Pix))
						}
					}
					continue
				}
				if st.ReadThrough != loaded || st.ResidentBytes != 0 || st.EvictedBytes != 0 {
					t.Fatalf("%s: stats %+v, want %d read through and nothing resident", what, st, loaded)
				}
			}
		}
	}
}

// TestRecordsFaultLandsOnItsRow: with a record's fault point armed to fire
// on the k-th record read, a batch of consecutive rows, or of every other
// row — a run read either way — comes back with only its k-th row empty and
// every other row loaded, the fault's error returned; and a clean batch
// reaches each record's fault point exactly once.
func TestRecordsFaultLandsOnItsRow(t *testing.T) {
	defer faults.Reset()
	const rows = 24
	s, _ := cacheFixture(t, 2*rows)
	for _, stride := range []int{1, 2} {
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = i * stride
		}
		faultedRows(t, s, idx)
	}
}

// faultedRows is TestRecordsFaultLandsOnItsRow over the rows idx.
func faultedRows(t *testing.T, s *Store, idx []int) {
	t.Helper()
	rows := len(idx)
	for _, tc := range []struct {
		form  xform.Transform
		point string
		text  string
	}{
		{xform.Transform{}, faults.StoreDecode, "source record"},
		{testTransforms[0], faults.StoreRepRead, "rep 8x8/gray record"},
	} {
		want, err := perRow(s, tc.form, idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range readModes {
			// A point armed past every read counts the reads without firing.
			if err := faults.Enable(tc.point, faults.Spec{Skip: 1 << 30}); err != nil {
				t.Fatal(err)
			}
			c, _ := NewCache(s, 1<<20)
			if err := m.read(c, tc.form, idx, make([]img.Record, rows)); err != nil {
				t.Fatal(err)
			}
			if hits := faults.Hits(tc.point); hits != int64(rows) {
				t.Fatalf("%s %s: %d rows reached %s %d times, want once each", m.name, tc.form.ID(), rows, tc.point, hits)
			}
			for _, k := range []int{0, 5, rows - 1} {
				if err := faults.Enable(tc.point, faults.Spec{Skip: k, Times: 1}); err != nil {
					t.Fatal(err)
				}
				c, _ := NewCache(s, 1<<20)
				got := make([]img.Record, rows)
				err := m.read(c, tc.form, idx, got)
				wantText := fmt.Sprintf("%s %d:", tc.text, idx[k])
				if err == nil || !strings.Contains(err.Error(), wantText) {
					t.Fatalf("%s %s rows %v, fault at read %d: error %v, want one naming %q", m.name, tc.form.ID(), idx, k, err, wantText)
				}
				for j := range got {
					if j == k {
						if got[j].Pix != nil {
							t.Fatalf("%s %s: the faulted row %d came back with a record", m.name, tc.form.ID(), k)
						}
						continue
					}
					sameRecords(t, fmt.Sprintf("%s %s fault at %d", m.name, tc.form.ID(), k), got[j:j+1], want[j:j+1])
				}
				if m.admit && c.Stats().ResidentBytes != int64(rows-1)*int64(want[0].StoredBytes()) {
					t.Fatalf("%s %s: %+v after a fault at row %d, want the other %d rows resident", m.name, tc.form.ID(), c.Stats(), idx[k], rows-1)
				}
			}
			faults.Reset()
		}
	}
}

// TestReadThroughLeavesCacheAlone: reading a batch through a warm cache that
// has already evicted serves and promotes its hits like Records, and loads
// its misses without inserting or evicting anything: ResidentBytes,
// EvictedBytes and the eviction order of the resident rows are as before,
// and none of the misses is resident afterwards.
func TestReadThroughLeavesCacheAlone(t *testing.T) {
	s, _ := cacheFixture(t, 30)
	c, err := NewCache(s, 6*srcRecord)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // rows 2..7 resident, 0 and 1 evicted
		if _, err := c.Record(i); err != nil {
			t.Fatal(err)
		}
	}
	before, order := c.Stats(), evictionOrder(c)
	if before.EvictedBytes == 0 {
		t.Fatal("fixture: the warm-up should have evicted")
	}
	misses := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1}
	dst := make([]img.Record, len(misses))
	if err := c.ReadThrough(context.Background(), xform.Transform{}, misses, dst); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.ResidentBytes != before.ResidentBytes || after.EvictedBytes != before.EvictedBytes ||
		after.Misses-before.Misses != int64(len(misses)) || after.ReadThrough-before.ReadThrough != int64(len(misses)) || after.Hits != before.Hits {
		t.Fatalf("read-through of %d misses: stats %+v → %+v", len(misses), before, after)
	}
	if got := evictionOrder(c); fmt.Sprint(got) != fmt.Sprint(order) {
		t.Fatalf("read-through moved the LRU order: %v → %v", order, got)
	}
	for _, i := range misses {
		if c.HasSource(i) {
			t.Fatalf("row %d was read through and is resident", i)
		}
	}
	// A hit is served, counted and promoted as Records would.
	if err := c.ReadThrough(context.Background(), xform.Transform{}, []int{2}, dst[:1]); err != nil {
		t.Fatal(err)
	}
	if got := evictionOrder(c); got[len(got)-1] != (cacheKey{idx: 2}) || c.Stats().Hits != before.Hits+1 {
		t.Fatalf("a read-through hit on the coldest row left order %v, %+v", got, c.Stats())
	}
}
