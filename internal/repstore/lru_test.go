package repstore

import (
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// TestLRUIndexFollowsResidentEntries: the row index costs pages for resident
// entries, not for the rows ever seen. A small budget cycles over 10⁶
// distinct rows of two forms, scattered so that most pages hold one entry;
// the live pages never outnumber the resident entries, and a table whose
// every entry is evicted holds no pages at all.
func TestLRUIndexFollowsResidentEntries(t *testing.T) {
	const rows = 1_000_000
	rec := img.Record{W: 4, H: 4, Mode: img.Gray, Pix: make([]byte, 16)}
	size := int64(rec.StoredBytes())
	c := newLRUCore(8 * size)
	forms := []xform.Transform{{}, {Size: 4, Color: img.Gray}}
	resident := func() int {
		n := 0
		for e := c.root.next; e != &c.root; e = e.next {
			n++
		}
		return n
	}
	livePages := func() int {
		n := 0
		for _, tab := range c.tables {
			n += tab.live
		}
		return n
	}
	for i := 0; i < rows; i++ {
		row := int(int64(i) * 7919 % rows) // a permutation of [0, rows): every row once
		c.insert(forms[i%2], row, rec)
		if pages, entries := livePages(), resident(); pages > entries {
			t.Fatalf("after %d inserts: %d live pages for %d resident entries", i+1, pages, entries)
		}
	}
	if st := c.stats(); st.ResidentBytes != 8*size || st.EvictedBytes != (rows-8)*size {
		t.Fatalf("stats %+v", st)
	}
	// One record as big as the budget evicts every other entry: only its
	// own table keeps a page.
	big := img.Record{W: 1, H: 1, Mode: img.Gray, Pix: make([]byte, 8*size)}
	c.insert(forms[1], 3, big)
	src, rep := c.table(forms[0]), c.table(forms[1])
	if src.live != 0 || src.pages != nil {
		t.Fatalf("the fully evicted source table holds %d pages (directory of %d)", src.live, len(src.pages))
	}
	if rep.live != 1 || resident() != 1 {
		t.Fatalf("the big record's table holds %d pages, %d entries resident", rep.live, resident())
	}
	c.insert(forms[0], rows-1, big)
	if rep.live != 0 || rep.pages != nil || src.live != 1 {
		t.Fatalf("after evicting the last rep: rep table %d pages, source table %d", rep.live, src.live)
	}
}
