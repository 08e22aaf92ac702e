// Package xform implements the paper's input transformation functions F: the
// physical-representation half of TAHOMA's model design space. A Transform
// maps a full-resolution RGB image to the representation a specific model
// consumes — a resolution rung combined with a color variant (full RGB, a
// single R/G/B channel, or grayscale).
//
// Transforms are identified by a stable ID ("32x32/gray") so that cascade
// cost accounting can charge the creation of each distinct representation
// only once per input image, exactly as in Section VI of the paper.
//
// Every representation a store holds or the engine scores is derived from a
// stored TIMG record by AppendRecord, in exact integer arithmetic, so it is
// the same bytes on every GOARCH, and the package has no float arithmetic
// but the expansion of those bytes. The float32 transform over images that
// training fits on lives in the train package; its stored form is within 1
// of AppendRecord's bytes per sample.
package xform

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tahoma/internal/img"
)

// Transform is one element of F: resize to Size×Size and project to Color.
// The color projection is applied before resizing (the two commute for
// linear resampling, and projecting first touches fewer samples).
type Transform struct {
	Size  int
	Color img.ColorMode
}

// ID returns the canonical identifier, e.g. "64x64/rgb" or "16x16/r".
func (t Transform) ID() string {
	return fmt.Sprintf("%dx%d/%s", t.Size, t.Size, t.Color)
}

// Channels returns the number of channels of the output representation.
func (t Transform) Channels() int { return t.Color.Channels() }

// Samples returns the number of scalar samples in the output representation
// (the "input values" count the paper uses, e.g. 150,528 for 224x224 RGB).
func (t Transform) Samples() int { return t.Channels() * t.Size * t.Size }

// StoredBytes returns the on-disk TIMG size of the output representation,
// used by load-cost models for the ONGOING scenario.
func (t Transform) StoredBytes() int {
	return img.EncodedSize(t.Size, t.Size, t.Color)
}

// stackTaps is how many column taps resampleTaps keeps on its stack; wider
// representations take one small allocation per call.
const stackTaps = 128

// ApplyRecord expands t's representation of rec into dst: the float32 samples
// a model reads, which are always the expansion (img.UnitsInto) of the bytes a
// store holds for that representation. A record that already is the
// representation (a served rep) is expanded as it is; any other is first
// derived into buf by AppendRecord, the one derivation, and that record
// expanded. A derived slot is therefore bit-identical to the same slot served
// from a store, and no float arithmetic runs before the expansion. dst and
// buf are reused when they fit (a mismatched dst is replaced) and both are
// returned.
func (t Transform) ApplyRecord(dst *img.Image, buf []byte, rec img.Record) (*img.Image, []byte) {
	mode := t.modeOf(rec)
	if dst == nil || dst.W != t.Size || dst.H != t.Size || dst.Mode != mode {
		dst = img.New(t.Size, t.Size, mode)
	}
	pix := rec.Pix
	if rec.W != t.Size || rec.H != t.Size || rec.Mode != mode {
		buf = t.AppendRecord(buf[:0], rec)
		pix = buf[len(buf)-len(dst.Pix):]
	}
	img.UnitsInto(dst.Pix, pix)
	return dst, buf
}

// AppendRecord appends the TIMG record of t's representation of rec to dst
// and returns the extended slice. It is defined in exact integer arithmetic
// on the record's bytes, so it is the same on every GOARCH:
//
//   - Along each axis, output coordinate i of n reads source position
//     ((2i+1)·src − n)/(2n), clamped at 0: the two samples around it, the
//     second clamped at the last sample, weighted over 2n by the fraction
//     (the float32 training transform's rule, as a rational).
//   - Grayscale projects each of the four taps with the Rec.601 weights in
//     16-bit fixed point (19595, 38470, 7471, which sum to 1<<16); a plane
//     read alone is weighted 1<<16.
//   - The output byte is the weighted sum of the four taps over its
//     denominator, (2n)²·2¹⁶, rounded half up once.
//
// Where the source is an integer multiple of the output on both axes (every
// default grid) the taps are whole samples, and resampleFactor computes the
// same bytes directly: the rounded mean of a 2×2 block at an even factor, one
// sample at an odd one. An output plane that is a stored plane unchanged
// (same geometry, no projection) is appended as stored. The derivation stays
// within 1 of quantizing the float32 transform training reads.
//
// This is the one derivation of a representation: a store derives every
// representation it holds with it, from the stored source record whichever
// way the row came in, and the engine derives every slot it does not serve
// with it (through ApplyRecord). t.Size must fit a TIMG header (img.MaxSide),
// which repstore.Create checks.
func (t Transform) AppendRecord(dst []byte, rec img.Record) []byte {
	mode := t.modeOf(rec)
	out := img.Record{W: t.Size, H: t.Size, Mode: mode}
	dst = out.AppendHeader(slices.Grow(dst, img.EncodedSize(t.Size, t.Size, mode)))
	n := t.Size
	kx, ky := rec.W/n, rec.H/n
	factor := kx*n == rec.W && ky*n == rec.H && kx%2 == ky%2
	var planes [3][]byte
	for c := range mode.Channels() {
		src := t.sourcePlanes(&planes, rec, c)
		if rec.W == n && rec.H == n && len(src) == 1 {
			dst = append(dst, src[0]...)
			continue
		}
		at := len(dst)
		dst = dst[:at+n*n]
		if factor {
			resampleFactor(dst[at:], src, rec.W, kx, ky, n)
		} else {
			resampleTaps(dst[at:], src, rec.W, rec.H, n)
		}
	}
	return dst
}

// modeOf is the mode of t's representation of rec. An RGB transform keeps
// the record's own mode: a single-plane record stays single-plane, and model
// geometry validation catches it.
func (t Transform) modeOf(rec img.Record) img.ColorMode {
	if t.Color == img.RGB {
		return rec.Mode
	}
	return t.Color
}

// sourcePlanes returns the stored planes output plane c of t's
// representation of rec is resampled from — one plane, or the three a
// grayscale projection reads — as a slice of buf. Every projection of a
// single-plane record reads that plane.
func (t Transform) sourcePlanes(buf *[3][]byte, rec img.Record, c int) [][]byte {
	switch {
	case rec.Mode != img.RGB:
		buf[0] = rec.Plane(0)
	case t.Color == img.RGB:
		buf[0] = rec.Plane(c)
	case t.Color == img.Gray:
		buf[0], buf[1], buf[2] = rec.Plane(0), rec.Plane(1), rec.Plane(2)
		return buf[:]
	default:
		buf[0] = rec.Plane(int(t.Color - img.Red))
	}
	return buf[:1]
}

// The Rec.601 luma weights in 16-bit fixed point. They sum to 1<<16, the
// weight of a plane read alone, so every sample's projected value carries
// 16 fractional bits.
const (
	lumaR = 19595
	lumaG = 38470
	lumaB = 7471
)

// luma returns sample i of planes projected in 16-bit fixed point: the
// sample shifted up, or the Rec.601 sum of three.
func luma(planes [][]byte, i int) uint64 {
	if len(planes) == 1 {
		return uint64(planes[0][i]) << 16
	}
	return lumaR*uint64(planes[0][i]) + lumaG*uint64(planes[1][i]) + lumaB*uint64(planes[2][i])
}

// tap is one output coordinate's two source samples along an axis and their
// weights over 2n, which sum to 2n.
type tap struct {
	i0, i1 int
	w0, w1 uint64
}

// tapAt returns coordinate i's tap along an axis of src samples resampled to
// n: source position ((2i+1)·src − n)/(2n), clamped at 0, split into its
// floor and fraction; the second sample clamps at the last one.
func tapAt(i, n, src int) tap {
	den := 2 * int64(n)
	num := max(int64(2*i+1)*int64(src)-int64(n), 0)
	i0, f := int(num/den), uint64(num%den)
	return tap{i0: i0, i1: min(i0+1, src-1), w0: uint64(den) - f, w1: f}
}

// resampleTaps writes the n×n resample of a w×h image — planes[0], or the
// grayscale projection of three planes — into out (n·n bytes), by the
// definition AppendRecord states, at any geometry: each output byte is its
// four weighted taps summed over (2n)²·2¹⁶ and rounded half up. The sum
// stays below 2⁶³ for every n a TIMG header holds.
func resampleTaps(out []byte, planes [][]byte, w, h, n int) {
	var stack [stackTaps]tap
	cols := stack[:]
	if n > len(cols) {
		cols = make([]tap, n)
	}
	cols = cols[:n]
	for x := range cols {
		cols[x] = tapAt(x, n, w)
	}
	den := uint64(n) * uint64(n) << 18
	for y := range n {
		ty := tapAt(y, n, h)
		top, bot := ty.i0*w, ty.i1*w
		o := out[y*n : y*n+n]
		for x, c := range cols {
			upper := c.w0*luma(planes, top+c.i0) + c.w1*luma(planes, top+c.i1)
			lower := c.w0*luma(planes, bot+c.i0) + c.w1*luma(planes, bot+c.i1)
			o[x] = byte((ty.w0*upper + ty.w1*lower + den/2) / den)
		}
	}
}

// resampleFactor is resampleTaps where w = kx·n and h = ky·n, both factors
// even or both odd. There every tap falls on whole samples: at even factors the
// output is the rounded mean of the 2×2 block at (x·kx + kx/2 − 1,
// y·ky + ky/2 − 1), at odd ones the sample at (x·kx + (kx−1)/2,
// y·ky + (ky−1)/2), rounded from 16-bit fixed point for grayscale. Each
// output row cuts the source rows it reads from every plane once, all to one
// length, and the loops over a row read only those cuts.
func resampleFactor(out []byte, planes [][]byte, w, kx, ky, n int) {
	for y := range n {
		top := (y*ky + (ky-1)/2) * w
		o := out[y*n : y*n+n]
		if kx%2 == 1 {
			samples(o, planes, top+(kx-1)/2, top+w, kx)
		} else {
			blockMeans(o, planes, top, w, kx)
		}
	}
}

// samples writes o[x], for each x, as the projected sample at byte x·k of
// source row bytes [from, to): the stored byte when one plane is read, the
// Rec.601 sum rounded from 16-bit fixed point when three are. Stepping an
// unsigned index under i < len(r) leaves the loop no bounds check.
func samples(o []byte, planes [][]byte, from, to, k int) {
	r := planes[0][from:to]
	if len(planes) == 1 {
		for x, i := 0, uint(0); x < len(o) && i < uint(len(r)); x, i = x+1, i+uint(k) {
			o[x] = r[i]
		}
		return
	}
	g, b := planes[1][from:to][:len(r)], planes[2][from:to][:len(r)]
	for x, i := 0, uint(0); x < len(o) && i < uint(len(r)); x, i = x+1, i+uint(k) {
		o[x] = byte((lumaR*uint64(r[i]) + lumaG*uint64(g[i]) + lumaB*uint64(b[i]) + 1<<15) >> 16)
	}
}

// SWAR constants: ones16 and ones32 hold a one in each 16- and 32-bit lane
// of a uint64; lo8 keeps the low byte of each 16-bit lane, lanes8 the low
// byte of each 32-bit lane and lo16 its low half.
const (
	ones16 = 0x0001_0001_0001_0001
	ones32 = 0x0000_0001_0000_0001
	lo8    = 0xFF * ones16
	lanes8 = 0xFF * ones32
	lo16   = 0xFFFF * ones32
)

// blockMeans writes o[x], for each x, as the rounded mean of the projected
// 2×2 block at column x·k + k/2 − 1 of source rows top and top+w: the four
// 16-bit fixed-point values summed, plus 2¹⁷, shifted down 18. At k = 2 and
// k = 4 it reads eight bytes of each row at a time and computes four or two
// outputs at once in the lanes of a uint64 (no lane can carry into the next:
// a block of four bytes sums to at most 1020, and its projection to at most
// 1020·2¹⁶ < 2³²); whatever is left is one output at a time.
//
// The eight-byte loops read every row through r[i:i+8:i+8]. Its capacity is
// the constant 8, so the load's address needs no mask, and with each row cut
// to len(r0) = cap(r0) the condition i+8 ≤ len(r0) covers every row's upper
// bound. What stays is the one low ≤ high check, i ≤ i+8, which the compiler
// cannot drop and shares among all the rows of an iteration. The
// one-at-a-time loop (columns) has no bounds check.
func blockMeans(o []byte, planes [][]byte, top, w, k int) {
	n := len(o)
	r0, r1 := rows(planes[0], top, w)
	if len(planes) == 1 {
		switch k {
		case 2:
			for i := 0; i+8 <= len(r0) && len(o) >= 4; i += 8 {
				s := (sums2(r0[i:i+8:i+8], r1[i:i+8:i+8]) + 2*ones16) >> 2 & lo8
				s = (s | s>>8) & lo16
				binary.LittleEndian.PutUint32(o, uint32(s|s>>16))
				o = o[4:]
			}
		case 4:
			for i := 0; i+8 <= len(r0) && len(o) >= 2; i += 8 {
				s := (sums4(r0[i:i+8:i+8], r1[i:i+8:i+8]) + 2*ones32) >> 2 & lanes8
				binary.LittleEndian.PutUint16(o, uint16(s|s>>24))
				o = o[2:]
			}
		}
		if len(o) == 0 {
			return
		}
		l0, rt0, l1, rt1 := columns(r0, r1, k)
		for x, i := 0, uint((n-len(o))*k); x < len(o) && i < uint(len(rt0)); x, i = x+1, i+uint(k) {
			o[x] = byte((uint(l0[i]) + uint(rt0[i]) + uint(l1[i]) + uint(rt1[i]) + 2) >> 2)
		}
		return
	}
	g0, g1 := rows(planes[1], top, w)
	b0, b1 := rows(planes[2], top, w)
	g0, g1, b0, b1 = g0[:len(r0):len(r0)], g1[:len(r0):len(r0)], b0[:len(r0):len(r0)], b1[:len(r0):len(r0)]
	switch k {
	case 2:
		for i := 0; i+8 <= len(r0) && len(o) >= 4; i += 8 {
			rs, gs, bs := sums2(r0[i:i+8:i+8], r1[i:i+8:i+8]), sums2(g0[i:i+8:i+8], g1[i:i+8:i+8]), sums2(b0[i:i+8:i+8], b1[i:i+8:i+8])
			even := round18(lumaR*(rs&lo16) + lumaG*(gs&lo16) + lumaB*(bs&lo16))
			odd := round18(lumaR*(rs>>16&lo16) + lumaG*(gs>>16&lo16) + lumaB*(bs>>16&lo16))
			v := even | odd<<8
			binary.LittleEndian.PutUint32(o, uint32(v|v>>16))
			o = o[4:]
		}
	case 4:
		for i := 0; i+8 <= len(r0) && len(o) >= 2; i += 8 {
			s := round18(lumaR*sums4(r0[i:i+8:i+8], r1[i:i+8:i+8]) +
				lumaG*sums4(g0[i:i+8:i+8], g1[i:i+8:i+8]) +
				lumaB*sums4(b0[i:i+8:i+8], b1[i:i+8:i+8]))
			binary.LittleEndian.PutUint16(o, uint16(s|s>>24))
			o = o[2:]
		}
	}
	if len(o) == 0 {
		return
	}
	rl0, rr0, rl1, rr1 := columns(r0, r1, k)
	gl0, gr0, gl1, gr1 := columns(g0, g1, k)
	bl0, br0, bl1, br1 := columns(b0, b1, k)
	for x, i := 0, uint((n-len(o))*k); x < len(o) && i < uint(len(rr0)); x, i = x+1, i+uint(k) {
		rs := uint64(rl0[i]) + uint64(rr0[i]) + uint64(rl1[i]) + uint64(rr1[i])
		gs := uint64(gl0[i]) + uint64(gr0[i]) + uint64(gl1[i]) + uint64(gr1[i])
		bs := uint64(bl0[i]) + uint64(br0[i]) + uint64(bl1[i]) + uint64(br1[i])
		o[x] = byte((lumaR*rs + lumaG*gs + lumaB*bs + 1<<17) >> 18)
	}
}

// rows returns source rows top and top+w of plane p, w bytes each, cut to
// no capacity beyond them and to the one length len(r0) every loop tests.
func rows(p []byte, top, w int) (r0, r1 []byte) {
	r0 = p[top : top+w : top+w]
	return r0, p[top+w : top+2*w][:len(r0):len(r0)]
}

// columns returns the one-at-a-time view of source rows r0 and r1 at an even
// factor k: four slices of one length whose index x·k holds the block of
// output x, its left and right column in r0 and in r1.
func columns(r0, r1 []byte, k int) (l0, rt0, l1, rt1 []byte) {
	rt0 = r0[k/2:]
	return r0[k/2-1:][:len(rt0)], rt0, r1[k/2-1:][:len(rt0)], r1[k/2:][:len(rt0)]
}

// sums2 returns, in the 16-bit lanes of a uint64, the sums of the four 2×2
// blocks of the first eight bytes of rows r0 and r1.
func sums2(r0, r1 []byte) uint64 {
	a, b := binary.LittleEndian.Uint64(r0), binary.LittleEndian.Uint64(r1)
	return a&lo8 + a>>8&lo8 + b&lo8 + b>>8&lo8
}

// sums4 returns, in the 32-bit lanes of a uint64, the sums of the two 2×2
// blocks of the first eight bytes of rows r0 and r1 that start at bytes 1 and
// 5.
func sums4(r0, r1 []byte) uint64 {
	a, b := binary.LittleEndian.Uint64(r0), binary.LittleEndian.Uint64(r1)
	return a>>8&lanes8 + a>>16&lanes8 + b>>8&lanes8 + b>>16&lanes8
}

// round18 rounds each 32-bit lane of v, a projected 2×2 block sum in 16-bit
// fixed point, to its byte: plus 2¹⁷, shifted down 18.
func round18(v uint64) uint64 {
	return (v + 1<<17*ones32) >> 18 & lanes8
}

// Validate reports whether the transform is well-formed.
func (t Transform) Validate() error {
	if t.Size < 2 {
		return fmt.Errorf("xform: size %d too small (min 2)", t.Size)
	}
	if t.Color > img.Gray {
		return fmt.Errorf("xform: unknown color mode %d", t.Color)
	}
	return nil
}

// Parse parses an ID previously produced by Transform.ID.
func Parse(id string) (Transform, error) {
	parts := strings.Split(id, "/")
	if len(parts) != 2 {
		return Transform{}, fmt.Errorf("xform: malformed transform id %q", id)
	}
	dims := strings.Split(parts[0], "x")
	if len(dims) != 2 || dims[0] != dims[1] {
		return Transform{}, fmt.Errorf("xform: malformed size in id %q", id)
	}
	size, err := strconv.Atoi(dims[0])
	if err != nil {
		return Transform{}, fmt.Errorf("xform: malformed size in id %q: %w", id, err)
	}
	var color img.ColorMode
	switch parts[1] {
	case "rgb":
		color = img.RGB
	case "r":
		color = img.Red
	case "g":
		color = img.Green
	case "b":
		color = img.Blue
	case "gray":
		color = img.Gray
	default:
		return Transform{}, fmt.Errorf("xform: unknown color %q in id %q", parts[1], id)
	}
	t := Transform{Size: size, Color: color}
	if err := t.Validate(); err != nil {
		return Transform{}, err
	}
	return t, nil
}

// AllColors is the paper's five color variants.
var AllColors = []img.ColorMode{img.RGB, img.Red, img.Green, img.Blue, img.Gray}

// Grid returns the cross product sizes × colors, sorted by ascending sample
// count then ID for determinism. This is the set F of Definition 6.
func Grid(sizes []int, colors []img.ColorMode) []Transform {
	out := make([]Transform, 0, len(sizes)*len(colors))
	for _, s := range sizes {
		for _, c := range colors {
			out = append(out, Transform{Size: s, Color: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples() != out[j].Samples() {
			return out[i].Samples() < out[j].Samples()
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// TransformWork returns an analytic operation count for materializing the
// representation from a full-size W×H RGB source: the color projection
// touches every source pixel (for non-RGB outputs), and bilinear resampling
// costs a constant number of operations per output sample.
func (t Transform) TransformWork(srcW, srcH int) int64 {
	var work int64
	if t.Color != img.RGB {
		work += int64(srcW) * int64(srcH) // projection pass over the source
	}
	const resampleOps = 8 // 4 taps, 3 lerps, 1 store
	work += int64(t.Samples()) * resampleOps
	return work
}
