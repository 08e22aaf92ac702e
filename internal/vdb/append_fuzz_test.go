package vdb

import (
	"bytes"
	"runtime"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/matstore"
)

// allocatedBy returns the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// appendRecBytes is a recAppend payload as the journal holds it.
func appendRecBytes(t testing.TB, base uint64, metas []Metadata, recs []img.Record, invalidate bool) []byte {
	t.Helper()
	parts, n, err := appendRecParts(base, metas, recs, invalidate)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Join(parts, nil)
	if len(data) != n {
		t.Fatalf("appendRecParts reports %d bytes for a %d-byte payload", n, len(data))
	}
	return data
}

// FuzzAppendRecord holds the recAppend decoder — the first thing recovery runs
// on bytes a crash may have mangled past what the frame checksum catches, and
// the one journal record that carries lengths sized by a client — to three
// properties on arbitrary input: it never panics; it never allocates more
// than a small multiple of the bytes it was given, whatever the counts inside
// claim; and what it accepts is canonical, re-encoding to exactly the input,
// with records that alias the input rather than copy it. The committed corpus
// (testdata/fuzz/FuzzAppendRecord) covers a two-row batch with records, the
// checkpoint's record-less metadata blob, a row count and a record size the
// payload cannot back, a record whose TIMG header disagrees with its size, a
// non-canonical flag and trailing bytes.
func FuzzAppendRecord(f *testing.F) {
	raw, err := img.AppendRecord(nil, img.New(2, 1, img.RGB))
	if err != nil {
		f.Fatal(err)
	}
	rec, err := img.ParseRecord(raw)
	if err != nil {
		f.Fatal(err)
	}
	metas := []Metadata{{ID: 7, TS: 9, Location: "gate", Camera: "cam-1"}, {ID: 8, TS: 10}}
	f.Add(appendRecBytes(f, 40, metas, []img.Record{rec, rec}, true))
	f.Add(appendRecBytes(f, 0, metas, nil, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			base   uint64
			metas  []Metadata
			recs   []img.Record
			inval  bool
			decErr error
		)
		got := allocatedBy(func() { base, metas, recs, inval, decErr = decodeAppendRec(data) })
		// A row is at least 24 bytes and decodes into a 64-byte Metadata plus
		// its strings; a record is at least 11 and decodes into one view.
		if limit := uint64(12*len(data) + 64<<10); got > limit {
			t.Fatalf("%d-byte input: decoder allocated %d bytes, limit %d", len(data), got, limit)
		}
		if decErr != nil {
			return
		}
		if len(recs) != 0 && len(recs) != len(metas) {
			t.Fatalf("decoded %d records for %d rows", len(recs), len(metas))
		}
		for i, r := range recs {
			if len(r.Pix) > 0 && (len(data) == 0 || !aliases(data, r.Pix)) {
				t.Fatalf("record %d was copied out of the payload", i)
			}
		}
		if again := appendRecBytes(t, base, metas, recs, inval); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload is not canonical: re-encodes to %d bytes, input was %d", len(again), len(data))
		}
	})
}

// FuzzMergeRecord holds the recMerge decoder — the journal record that
// restores materialized labels on replay — to FuzzAppendRecord's three
// properties: it never panics; it allocates at most a small multiple of the
// bytes it was given, whatever row count the record claims; and what it
// accepts re-encodes to exactly the input. The committed corpus
// (testdata/fuzz/FuzzMergeRecord) covers a two-row record, an empty one, a
// label byte of 0x02, a row count of more rows than the payload can hold, a
// truncated row and trailing bytes.
func FuzzMergeRecord(f *testing.F) {
	key := matstore.Key{Category: "cloak", Cascade: "c2w8d16@8/gray>c2w8d16@16/rgb"}
	f.Add(encodeMergeRec(key, []int{3, 40}, []bool{true, false}))
	f.Add(encodeMergeRec(key, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			key    matstore.Key
			rows   []int
			labels []bool
			decErr error
		)
		got := allocatedBy(func() { key, rows, labels, decErr = decodeMergeRec(data) })
		// A row is 5 bytes and decodes into an int and a bool; the key's
		// strings are copied once.
		if limit := uint64(3*len(data) + 16<<10); got > limit {
			t.Fatalf("%d-byte input: decoder allocated %d bytes, limit %d", len(data), got, limit)
		}
		if decErr != nil {
			return
		}
		if len(labels) != len(rows) {
			t.Fatalf("decoded %d labels for %d rows", len(labels), len(rows))
		}
		if again := encodeMergeRec(key, rows, labels); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload is not canonical: re-encodes to %d bytes, input was %d", len(again), len(data))
		}
	})
}

// aliases reports whether sub lies inside buf's backing array.
func aliases(buf, sub []byte) bool {
	for i := range buf {
		if &buf[i] == &sub[0] {
			return i+len(sub) <= len(buf)
		}
	}
	return false
}
