package img

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// headerBomb is a complete 10-byte TIMG header promising a 65535×65535 RGB
// image — 12.9 G samples, 51.5 GB of float32 planes — over no body at all.
var headerBomb = []byte("TIMG\x01\x00\xff\xff\xff\xff")

// allocatedBy reports the heap bytes fn allocated (cumulative, so a
// collection in between cannot hide any).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func encoded(t testing.TB, im *Image) []byte {
	t.Helper()
	raw, err := AppendRecord(nil, im)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestHeaderBombRejected: no TIMG reader sizes anything from a header the
// body does not back. The bomb — alone, or followed by a body far short of
// its promise — is ErrCorrupt from both readers after a bounded allocation.
func TestHeaderBombRejected(t *testing.T) {
	padded := append(append([]byte{}, headerBomb...), make([]byte, 100<<10)...)
	for _, tc := range []struct {
		name  string
		data  []byte
		limit uint64
	}{
		{"bare", headerBomb, 64 << 10},
		{"100KiB body", padded, 512 << 10}, // the read buffer doubles behind the bytes delivered
	} {
		var perr, derr error
		// ParseRecord allocates only its error (the race detector inflates
		// even that to a few KiB).
		if got := allocatedBy(func() { _, perr = ParseRecord(tc.data) }); got > 16<<10 || !errors.Is(perr, ErrCorrupt) {
			t.Fatalf("%s: ParseRecord allocated %d bytes, err %v; want ErrCorrupt for next to nothing", tc.name, got, perr)
		}
		if got := allocatedBy(func() { _, derr = Decode(bytes.NewReader(tc.data)) }); got > tc.limit || !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("%s: Decode allocated %d bytes (limit %d), err %v; want ErrCorrupt", tc.name, got, tc.limit, derr)
		}
	}
}

// TestParseRecordLengthExact: a record is its header plus exactly C·W·H
// sample bytes — one short and one over are both corrupt — and an accepted
// record is a view of the parsed bytes, not a copy.
func TestParseRecordLengthExact(t *testing.T) {
	raw := encoded(t, randImage(rand.New(rand.NewSource(4)), 5, 3, RGB))
	rec, err := ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.W != 5 || rec.H != 3 || rec.Mode != RGB || len(rec.Pix) != 45 || rec.StoredBytes() != len(raw) {
		t.Fatalf("parsed %dx%d/%v with %d samples, %d stored bytes", rec.W, rec.H, rec.Mode, len(rec.Pix), rec.StoredBytes())
	}
	if &rec.Pix[0] != &raw[timgHeaderSize] || len(rec.Plane(2)) != 15 || &rec.Plane(2)[0] != &raw[timgHeaderSize+30] {
		t.Fatal("record must alias the parsed bytes, plane-major")
	}
	for _, bad := range [][]byte{raw[:len(raw)-1], append(append([]byte{}, raw...), 0)} {
		if _, err := ParseRecord(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d-byte record for a %d-byte image: err %v, want ErrCorrupt", len(bad), len(raw), err)
		}
	}
}

// TestUnitTable: the table holds exactly the division it replaces.
func TestUnitTable(t *testing.T) {
	for b := 0; b < 256; b++ {
		if want := float32(b) / 255; math.Float32bits(Unit(byte(b))) != math.Float32bits(want) {
			t.Fatalf("Unit(%d) = %v, want %v", b, Unit(byte(b)), want)
		}
	}
}

// TestAppendRecordMatchesEncode: AppendRecord extends dst in place with
// exactly the bytes Encode writes, reusing dst's capacity.
func TestAppendRecordMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, 0, 4096)
	for _, im := range []*Image{randImage(rng, 6, 4, RGB), randImage(rng, 3, 9, Gray)} {
		im.Pix[0], im.Pix[1] = -0.5, 1.5 // clamped, as Encode clamps
		var enc bytes.Buffer
		if err := Encode(&enc, im); err != nil {
			t.Fatal(err)
		}
		out, err := AppendRecord(append(buf[:0], "prefix"...), im)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:6], []byte("prefix")) || !bytes.Equal(out[6:], enc.Bytes()) {
			t.Fatalf("%dx%d/%v: AppendRecord output differs from Encode's", im.W, im.H, im.Mode)
		}
		if &out[0] != &buf[:1][0] {
			t.Fatal("AppendRecord reallocated a buffer with room to spare")
		}
	}
	if _, err := AppendRecord(nil, &Image{W: 70000, H: 1, Mode: Gray}); err == nil {
		t.Fatal("a dimension past uint16 must be refused")
	}
}

// FuzzRecord holds the two TIMG readers to each other on arbitrary bytes:
// the slice parser accepts exactly what Decode accepts and wholly consumes
// (Decode reads one image off a stream, so bytes after it are the stream's
// business; a record has none), accepted input decodes to the same samples
// either way, nothing panics, and neither reader allocates more than a small
// multiple of the input it was actually given — a header is a claim, not a
// size. The committed corpus (testdata/fuzz/FuzzRecord) covers valid RGB and
// gray records, truncation, oversized dimensions, bad magic/version/mode and
// trailing bytes.
func FuzzRecord(f *testing.F) {
	f.Add(encoded(f, randImage(rand.New(rand.NewSource(1)), 4, 2, RGB)))
	f.Add(headerBomb)
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		var im *Image
		var perr, derr error
		stream := bytes.NewReader(data)
		got := allocatedBy(func() {
			rec, perr = ParseRecord(data)
			im, derr = Decode(stream)
		})
		// Decode holds the sample bytes (≤ 2× while its buffer doubles) and
		// the float32 planes (4×); the slack covers its first chunk and the
		// runtime's own bookkeeping.
		if limit := uint64(8*len(data) + 256<<10); got > limit {
			t.Fatalf("%d-byte input: readers allocated %d bytes, limit %d", len(data), got, limit)
		}
		for _, err := range []error{perr, derr} {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
		}
		if decodedAll := derr == nil && stream.Len() == 0; (perr == nil) != decodedAll {
			t.Fatalf("ParseRecord err = %v, but Decode err = %v with %d bytes unread", perr, derr, stream.Len())
		}
		if perr != nil {
			return
		}
		if rec.W != im.W || rec.H != im.H || rec.Mode != im.Mode || len(rec.Pix) != len(im.Pix) {
			t.Fatalf("ParseRecord saw %dx%d/%v (%d samples), Decode %dx%d/%v (%d)", rec.W, rec.H, rec.Mode, len(rec.Pix), im.W, im.H, im.Mode, len(im.Pix))
		}
		if !bytes.Equal(rec.AppendTo(nil), data) {
			t.Fatal("Record.AppendTo does not reproduce the bytes the record was parsed from")
		}
		viaRecord := rec.Image()
		for i, b := range rec.Pix {
			if math.Float32bits(im.Pix[i]) != math.Float32bits(float32(b)/255) || math.Float32bits(viaRecord.Pix[i]) != math.Float32bits(im.Pix[i]) {
				t.Fatalf("sample %d (stored %d): Decode %v, Record.Image %v", i, b, im.Pix[i], viaRecord.Pix[i])
			}
		}
	})
}

// TestAppendQuantizedUnit: quantizing a stored sample's float value gives
// back the stored sample, for all 256 of them — the property that lets a
// representation that is already a stored record be appended as stored.
func TestAppendQuantizedUnit(t *testing.T) {
	units := make([]float32, 256)
	for b := range units {
		units[b] = Unit(byte(b))
	}
	got := AppendQuantized([]byte("x"), units)
	if len(got) != 257 || got[0] != 'x' {
		t.Fatalf("AppendQuantized over a 1-byte prefix gave %d bytes, prefix %q", len(got), got[:1])
	}
	for b, q := range got[1:] {
		if int(q) != b {
			t.Fatalf("quantize(Unit(%d)) = %d", b, q)
		}
	}
}
