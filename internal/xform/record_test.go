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
// raw to refDerive's exact reference, byte for byte (checkStoredParity), and
// ApplyRecord — the slot the engine scores — to img.UnitsInto of those bytes,
// bit for bit. It returns the image ApplyRecord produced.
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

// refDerive is the derivation's definition evaluated one sample at a time,
// written apart from the production loops and with no shortcut for any
// geometry. Along each axis, output coordinate i of n sits at source position
// ((2i+1)·src − n)/(2n), clamped at 0; its samples ⌊pos⌋ and the next one
// (clamped at the last) weigh 1 − frac and frac. Grayscale projects each
// sample as (19595·R + 38470·G + 7471·B)/65536. The output byte is the
// weighted sum of the four samples, rounded half up once.
func refDerive(tr Transform, rec img.Record) []byte {
	n := int64(tr.Size)
	mode := tr.Color
	if mode == img.RGB {
		mode = rec.Mode
	}
	axis := func(i, src int) (i0, i1 int, w0, w1 int64) {
		pos := max((2*int64(i)+1)*int64(src)-n, 0) // over 2n
		i0 = int(pos / (2 * n))
		i1 = min(i0+1, src-1)
		w1 = pos - int64(i0)*2*n
		return i0, i1, 2*n - w1, w1
	}
	// sample is plane c of the representation at source (x, y), times 65536.
	sample := func(c, x, y int) int64 {
		at := y*rec.W + x
		switch {
		case rec.Mode != img.RGB:
			return 65536 * int64(rec.Plane(0)[at])
		case tr.Color == img.Gray:
			return 19595*int64(rec.Plane(0)[at]) + 38470*int64(rec.Plane(1)[at]) + 7471*int64(rec.Plane(2)[at])
		case tr.Color == img.RGB:
			return 65536 * int64(rec.Plane(c)[at])
		default:
			return 65536 * int64(rec.Plane(int(tr.Color - img.Red))[at])
		}
	}
	out := img.Record{W: tr.Size, H: tr.Size, Mode: mode}.AppendHeader(nil)
	den := 4 * n * n * 65536
	for c := range mode.Channels() {
		for y := range tr.Size {
			y0, y1, wy0, wy1 := axis(y, rec.H)
			for x := range tr.Size {
				x0, x1, wx0, wx1 := axis(x, rec.W)
				num := wy0*(wx0*sample(c, x0, y0)+wx1*sample(c, x1, y0)) +
					wy1*(wx0*sample(c, x0, y1)+wx1*sample(c, x1, y1))
				out = append(out, byte((2*num+den)/(2*den)))
			}
		}
	}
	return out
}

// checkStoredParity holds AppendRecord over rec to refDerive, byte for byte,
// and returns the derived record. The bytes are appended after a prefix,
// which must survive.
func checkStoredParity(t testing.TB, tr Transform, rec img.Record) []byte {
	t.Helper()
	prefix := []byte("prefix")
	want := append(append([]byte(nil), prefix...), refDerive(tr, rec)...)
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

// parityTable runs fn over TestApplyRecordParity's table: five colours ×
// down-, same- and up-scale targets × RGB and single-plane stored records ×
// square and non-square sources, one named subtest each.
func parityTable(t *testing.T, fn func(t *testing.T, tr Transform, raw []byte)) {
	rng := rand.New(rand.NewSource(17))
	for _, geom := range [][2]int{{32, 32}, {40, 24}} {
		for _, stored := range []img.ColorMode{img.RGB, img.Gray} {
			raw := randRecord(t, rng, geom[0], geom[1], stored)
			for _, color := range AllColors {
				for _, size := range []int{2, 8, 16, 31, 32, 48} {
					tr := Transform{Size: size, Color: color}
					t.Run(fmt.Sprintf("%dx%d/%v/%s", geom[0], geom[1], stored, tr.ID()), func(t *testing.T) {
						fn(t, tr, raw)
					})
				}
			}
		}
	}
}

// TestApplyRecordParity is the load path's contract as a table (parityTable):
// every AppendRecord byte equal to the exact reference, and every
// ApplyRecord sample Float32bits-equal to that record expanded. A matching
// destination is reused and a mismatched one replaced.
func TestApplyRecordParity(t *testing.T) {
	parityTable(t, func(t *testing.T, tr Transform, raw []byte) {
		first := checkRecordParity(t, tr, nil, raw)
		if again := checkRecordParity(t, tr, first, raw); again != first {
			t.Fatal("matching destination was not reused")
		}
		wrong := img.New(3, 3, img.Gray)
		if got := checkRecordParity(t, tr, wrong, raw); got == wrong {
			t.Fatal("mismatched destination was written through")
		}
	})
	// A representation wider than the on-stack tap table.
	checkRecordParity(t, Transform{Size: stackTaps + 9, Color: img.Gray}, nil, randRecord(t, rand.New(rand.NewSource(19)), 32, 32, img.RGB))
}

// TestFactorLoopMatchesTaps holds resampleFactor, the loop every default grid
// takes, to resampleTaps, the general one, byte for byte: every pair of
// factors of one parity up to 8 over sources up to 64×64, single-plane and
// grayscale, at every output size those factors give — the even factors 2
// and 4 run eight bytes at a time, so output widths that are not a multiple
// of their step exercise the one-at-a-time tail.
func TestFactorLoopMatchesTaps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	planes := make([][]byte, 3)
	for i := range planes {
		planes[i] = make([]byte, 64*64)
		rng.Read(planes[i])
	}
	// Extremes, so a carry across a lane would show.
	for i := range 64 {
		planes[0][i], planes[1][i], planes[2][i] = 255, 255, 255
	}
	for kx := 1; kx <= 8; kx++ {
		for ky := kx % 2; ky <= 8; ky += 2 {
			if ky == 0 {
				continue
			}
			for n := 1; n*max(kx, ky) <= 64; n++ {
				w, h := kx*n, ky*n
				for _, src := range [][][]byte{planes[:1], planes} {
					cut := make([][]byte, len(src))
					for i := range src {
						cut[i] = src[i][:w*h]
					}
					want, got := make([]byte, n*n), make([]byte, n*n)
					resampleTaps(want, cut, w, h, n)
					resampleFactor(got, cut, w, kx, ky, n)
					if !bytes.Equal(got, want) {
						t.Fatalf("%d plane(s), %dx%d → %d: the factor loop differs from the tap loop", len(src), w, h, n)
					}
				}
			}
		}
	}
}

// FuzzFactorLoop holds resampleFactor to resampleTaps byte for byte, as
// TestFactorLoopMatchesTaps does, over fuzzer-chosen factors kx and ky
// (1–8, one parity), output size n (1–24) and plane bytes, with one plane
// and with three. Each plane is exactly w·h bytes with no capacity beyond,
// so a read past the source panics.
func FuzzFactorLoop(f *testing.F) {
	// The all-255 rows TestFactorLoopMatchesTaps starts its planes with, and
	// a ramp whose blocks round both ways, at the default grid's factors and
	// at sizes that leave a tail.
	white, ramp := bytes.Repeat([]byte{255}, 64), make([]byte, 61)
	for i := range ramp {
		ramp[i] = byte(i * 37)
	}
	for _, s := range [][3]uint8{{2, 0, 16}, {4, 1, 8}, {2, 0, 7}, {4, 1, 5}, {6, 2, 3}, {1, 0, 9}, {3, 2, 4}, {8, 3, 2}} {
		f.Add(s[0], s[1], s[2], white)
		f.Add(s[0], s[1], s[2], ramp)
	}
	f.Fuzz(func(t *testing.T, kxb, kyb, nb uint8, data []byte) {
		kx := 1 + int(kxb)%8
		ky := 2 - kx%2 + 2*(int(kyb)%4)
		n := 1 + int(nb)%24
		w, h := kx*n, ky*n
		planes := make([][]byte, 3)
		for c := range planes {
			planes[c] = make([]byte, w*h)
			for i := range planes[c] {
				if len(data) > 0 {
					planes[c][i] = data[(i+c*len(data)/3)%len(data)]
				}
			}
		}
		for _, src := range [][][]byte{planes[:1], planes} {
			want, got := make([]byte, n*n), make([]byte, n*n)
			resampleTaps(want, src, w, h, n)
			resampleFactor(got, src, w, kx, ky, n)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d plane(s), %dx%d → %d: the factor loop differs from the tap loop", len(src), w, h, n)
			}
		}
	})
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
// of a small grid, the derivation (AppendRecord) equals the exact reference
// (refDerive) byte for byte, and the slot ApplyRecord fills equals those
// bytes expanded bit for bit. Large geometries are skipped, not rejected: the property is about
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
