package xform

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tahoma/internal/img"
)

// randRecord encodes a random w×h image of the given stored mode.
func randRecord(t testing.TB, rng *rand.Rand, w, h int, mode img.ColorMode) []byte {
	t.Helper()
	im := img.New(w, h, mode)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	raw, err := img.AppendRecord(nil, im)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkRecordParity holds the one derivation to its oracle: AppendRecord over
// raw to the stored form of Apply over the decoded record, byte for byte
// (checkStoredParity), and ApplyRecord — the slot the engine scores — to
// img.UnitsInto of those bytes, bit for bit. It returns the image ApplyRecord
// produced.
func checkRecordParity(t testing.TB, tr Transform, dst *img.Image, raw []byte) *img.Image {
	t.Helper()
	rec, err := img.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := img.ParseRecord(checkStoredParity(t, tr, rec))
	if err != nil {
		t.Fatal(err)
	}
	want := derived.Image()
	got, _ := tr.ApplyRecord(dst, nil, rec)
	if got.W != want.W || got.H != want.H || got.Mode != want.Mode || len(got.Pix) != len(want.Pix) {
		t.Fatalf("%s over %dx%d/%v: geometry %dx%d/%v (%d samples), oracle %dx%d/%v (%d)", tr.ID(), rec.W, rec.H, rec.Mode,
			got.W, got.H, got.Mode, len(got.Pix), want.W, want.H, want.Mode, len(want.Pix))
	}
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s over %dx%d/%v: sample %d = %v (%#x), oracle %v (%#x)", tr.ID(), rec.W, rec.H, rec.Mode,
				i, got.Pix[i], math.Float32bits(got.Pix[i]), want.Pix[i], math.Float32bits(want.Pix[i]))
		}
	}
	return got
}

// checkStoredParity holds AppendRecord over rec to img.AppendRecord of Apply
// over the decoded record — the float32 path's representation, stored — and
// returns the derived record. The bytes are appended after a prefix, which
// must survive.
func checkStoredParity(t testing.TB, tr Transform, rec img.Record) []byte {
	t.Helper()
	prefix := []byte("prefix")
	want, err := img.AppendRecord(append([]byte(nil), prefix...), tr.Apply(rec.Image()))
	if err != nil {
		t.Fatal(err)
	}
	got := tr.AppendRecord(append([]byte(nil), prefix...), rec)
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s over %dx%d/%v: AppendRecord gives %d bytes, the oracle %d; first difference at byte %d",
			tr.ID(), rec.W, rec.H, rec.Mode, len(got), len(want), at)
	}
	return got[len(prefix):]
}

// TestApplyRecordParity is the load path's contract as a table: five colours ×
// down-, same- and up-scale targets × RGB and single-plane stored records ×
// square and non-square sources, every AppendRecord byte equal to the stored
// form of Apply(Decode(record)), and every ApplyRecord sample
// Float32bits-equal to that record expanded. A matching destination is reused
// and a mismatched one replaced, as with ApplyInto.
func TestApplyRecordParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, geom := range [][2]int{{32, 32}, {40, 24}} {
		for _, stored := range []img.ColorMode{img.RGB, img.Gray} {
			raw := randRecord(t, rng, geom[0], geom[1], stored)
			for _, color := range AllColors {
				for _, size := range []int{2, 8, 16, 31, 32, 48} {
					tr := Transform{Size: size, Color: color}
					t.Run(fmt.Sprintf("%dx%d/%v/%s", geom[0], geom[1], stored, tr.ID()), func(t *testing.T) {
						first := checkRecordParity(t, tr, nil, raw)
						if again := checkRecordParity(t, tr, first, raw); again != first {
							t.Fatal("matching destination was not reused")
						}
						wrong := img.New(3, 3, img.Gray)
						if got := checkRecordParity(t, tr, wrong, raw); got == wrong {
							t.Fatal("mismatched destination was written through")
						}
					})
				}
			}
		}
	}
	// A representation wider than the on-stack tap table.
	checkRecordParity(t, Transform{Size: stackTaps + 9, Color: img.Gray}, nil, randRecord(t, rng, 32, 32, img.RGB))
}

// TestApplyRecordAllocs: into a matching destination and a derivation buffer
// with room, a slot allocates nothing — the engine's steady state depends on
// it — including the identity case (32×32 RGB over a 32×32 RGB record) a
// served representation takes.
func TestApplyRecordAllocs(t *testing.T) {
	rec, err := img.ParseRecord(randRecord(t, rand.New(rand.NewSource(3)), 32, 32, img.RGB))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []Transform{{Size: 16, Color: img.Gray}, {Size: 8, Color: img.RGB}, {Size: 32, Color: img.Green}, {Size: 32, Color: img.RGB}} {
		dst, buf := tr.ApplyRecord(nil, nil, rec)
		if avg := testing.AllocsPerRun(20, func() { dst, buf = tr.ApplyRecord(dst, buf, rec) }); avg != 0 {
			t.Fatalf("%s: %.1f allocations per call into a matching destination, want 0", tr.ID(), avg)
		}
		stored := tr.AppendRecord(nil, rec)
		if avg := testing.AllocsPerRun(20, func() { stored = tr.AppendRecord(stored[:0], rec) }); avg != 0 {
			t.Fatalf("%s: AppendRecord made %.1f allocations per call into a buffer with room, want 0", tr.ID(), avg)
		}
	}
}

// fuzzGrid is the small transform grid FuzzApplyRecord crosses every accepted
// record with: each colour, with sizes on both sides of typical record
// geometry.
var fuzzGrid = Grid([]int{2, 5, 16}, AllColors)

// FuzzApplyRecord: for any record the TIMG parser accepts and any transform
// of a small grid, the derivation (AppendRecord) equals the stored form of
// Apply over the decoded record byte for byte, and the slot ApplyRecord fills
// equals those bytes expanded bit for bit. Large geometries are skipped, not rejected: the property is about
// arithmetic, and the parser's own fuzz target owns size handling.
func FuzzApplyRecord(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzApplyRecord) holds the records:
	// square and non-square RGB, single-plane, 1×1, all-extreme samples.
	f.Add(randRecord(f, rand.New(rand.NewSource(23)), 7, 3, img.RGB))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := img.ParseRecord(raw)
		if err != nil || len(rec.Pix) > 1<<14 {
			return
		}
		for _, tr := range fuzzGrid {
			checkRecordParity(t, tr, nil, raw)
		}
	})
}
