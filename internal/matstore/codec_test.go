package matstore

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// TestColumnCodecRoundTrip: every published column decodes back to the same
// rows, labels, length and watermark — including lengths off a word
// boundary and a watermark short of the end.
func TestColumnCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coin := func(int) bool { return rng.Intn(2) == 0 }
	s := New(0)
	for i, n := range []int{0, 1, 63, 64, 65, 200} {
		publish(s, Key{"cloak", string(rune('a' + i))}, n, coin, coin)
	}
	// A gap at row 40 keeps the watermark short of the end.
	publish(s, Key{"fence", "c9"}, 70, func(i int) bool { return i != 40 }, func(i int) bool { return i%5 == 0 })
	for k, orig := range s.Columns() {
		got, err := DecodeColumn(orig.AppendEncoded(nil))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got.Len() != orig.Len() || got.prefix != orig.prefix || got.Coverage() != orig.Coverage() || !got.frozen {
			t.Fatalf("%v: len %d prefix %d coverage %d, want %d/%d/%d (frozen %v)",
				k, got.Len(), got.prefix, got.Coverage(), orig.Len(), orig.prefix, orig.Coverage(), got.frozen)
		}
		for i := 0; i < orig.Len(); i++ {
			if got.Valid(i) != orig.Valid(i) || got.Label(i) != orig.Label(i) {
				t.Fatalf("%v row %d differs", k, i)
			}
		}
	}
	if c := s.Columns().Get(Key{"fence", "c9"}); c.prefix != 40 {
		t.Fatalf("fixture watermark %d, want 40", c.prefix)
	}
}

// encodeRaw builds a column encoding from its fields, consistent or not.
func encodeRaw(n, prefix uint64, labels, valid []uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, n)
	b = binary.LittleEndian.AppendUint64(b, prefix)
	for _, w := range append(append([]uint64(nil), labels...), valid...) {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// TestDecodeColumnReestablishesInvariants: stray bits past the row count and
// labels on invalid rows are cleared, not trusted.
func TestDecodeColumnReestablishesInvariants(t *testing.T) {
	col, err := DecodeColumn(encodeRaw(70, 0, []uint64{^uint64(0), ^uint64(0)}, []uint64{0b1010, ^uint64(0)}))
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Coverage(); got != 2+6 {
		t.Fatalf("coverage %d, want 8 (bits past row 70 must not count)", got)
	}
	if lw, vw := col.labels.Words(), col.valid.Words(); lw[0] != 0b1010 || lw[1] != 1<<6-1 || vw[1] != 1<<6-1 {
		t.Fatalf("labels %x / validity %x: a label survived on an invalid row or past the end", lw, vw)
	}
}

// TestDecodeColumnRefusesDamage: a payload whose size disagrees with its row
// count, a watermark past the end, and a watermark over an invalid row are
// errors.
func TestDecodeColumnRefusesDamage(t *testing.T) {
	ones := []uint64{^uint64(0)}
	for name, data := range map[string][]byte{
		"short header":        make([]byte, 15),
		"ragged words":        append(encodeRaw(64, 0, ones, ones), 0),
		"too few words":       encodeRaw(65, 0, ones, ones),
		"too many words":      encodeRaw(1, 0, []uint64{1, 0}, []uint64{1, 0}),
		"watermark past end":  encodeRaw(64, 65, ones, ones),
		"watermark over hole": encodeRaw(64, 10, ones, []uint64{^uint64(1 << 7)}),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeColumn(data); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// TestDecodeColumnNeverAllocatesFromItsLength: a small payload claiming 2^40
// rows is refused before anything its length implies is allocated.
func TestDecodeColumnNeverAllocatesFromItsLength(t *testing.T) {
	data := encodeRaw(1<<40, 0, []uint64{1, 2}, []uint64{3, 4})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeColumn(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2^40-row column in 48 bytes accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes", len(data), got)
	}
}

// TestStoreRestore: Restore swaps the column set in and bumps the generation,
// so labels computed against the replaced set are refused by their owner;
// usage survives.
func TestStoreRestore(t *testing.T) {
	s := New(0)
	k := Key{"cloak", "c1"}
	s.Touch(k)
	publish(s, k, 8, all, all)
	gen := s.Generation()
	col, err := DecodeColumn(s.Columns().Get(k).AppendEncoded(nil))
	if err != nil {
		t.Fatal(err)
	}
	other := Key{"fence", "c2"}
	s.Restore(Columns{other: col})
	if s.Generation() != gen+1 {
		t.Fatalf("generation %d, want %d", s.Generation(), gen+1)
	}
	if s.Coverage(k) != 0 || s.Coverage(other) != 8 {
		t.Fatalf("restored set: %+v", s.Columns())
	}
	if st := s.Stats(); len(st.Usage) != 1 || st.Usage[0].Touches != 1 {
		t.Fatalf("usage table lost on restore: %+v", st.Usage)
	}
}
