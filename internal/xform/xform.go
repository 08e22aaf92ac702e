// Package xform implements the paper's input transformation functions F: the
// physical-representation half of TAHOMA's model design space. A Transform
// maps a full-resolution RGB image to the representation a specific model
// consumes — a resolution rung combined with a color variant (full RGB, a
// single R/G/B channel, or grayscale).
//
// Transforms are identified by a stable ID ("32x32/gray") so that cascade
// cost accounting can charge the creation of each distinct representation
// only once per input image, exactly as in Section VI of the paper.
package xform

import (
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

// Apply materializes the representation from a source image. The source may
// be any resolution; it is typically the full-size corpus image.
func (t Transform) Apply(src *img.Image) *img.Image {
	var projected *img.Image
	switch t.Color {
	case img.RGB:
		projected = src
	case img.Gray:
		projected = img.ToGray(src)
	default:
		projected = img.ExtractChannel(src, t.Color)
	}
	out := img.Resize(projected, t.Size, t.Size)
	return out
}

// ApplyInto is Apply into caller-owned buffers, for callers that hold float32
// images (the engine derives from stored records instead: ApplyRecord). dst
// receives the representation and is reused when its geometry matches what
// Apply would produce for src (otherwise a fresh image is allocated); proj is
// an optional scratch for the intermediate full-resolution color projection,
// reused the same way. The image actually holding the representation and the
// (possibly newly allocated) projection scratch are returned; pixel values are
// bit-identical to Apply's.
func (t Transform) ApplyInto(dst, src, proj *img.Image) (rep, projOut *img.Image) {
	// Mirror Apply: an RGB transform keeps the source's own mode (a
	// single-channel source stays single-channel and is caught later by
	// model geometry validation), the other transforms project first.
	mode := t.Color
	if t.Color == img.RGB {
		mode = src.Mode
	}
	if dst == nil || dst.W != t.Size || dst.H != t.Size || dst.Mode != mode {
		dst = img.New(t.Size, t.Size, mode)
	}
	if t.Color == img.RGB {
		img.ResizeInto(dst, src)
		return dst, proj
	}
	if proj == nil || proj.W != src.W || proj.H != src.H || proj.Mode != mode {
		proj = img.New(src.W, src.H, mode)
	}
	if t.Color == img.Gray {
		img.ToGrayInto(proj, src)
	} else {
		img.ExtractChannelInto(proj, src, t.Color)
	}
	img.ResizeInto(dst, proj)
	return dst, proj
}

// colTap is one destination column's bilinear taps (see img.Tap).
type colTap struct {
	x0, x1 int
	fx     float32
}

// stackTaps is how many column taps and row samples AppendRecord keeps on its
// stack; wider representations take one small allocation per call.
const stackTaps = 128

// ApplyRecord expands t's representation of rec into dst: the float32 samples
// a model reads, which are always the expansion (img.UnitsInto) of the bytes a
// store holds for that representation. A record that already is the
// representation (a served rep) is expanded as it is; any other is first
// derived into buf by AppendRecord, the one derivation, and that record
// expanded. A derived slot is therefore bit-identical to the same slot served
// from a store. dst and buf are reused when they fit (a mismatched dst is
// replaced) and both are returned.
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
// and returns the extended slice: the bytes img.AppendRecord(dst,
// t.Apply(rec.Image())) would append, without a float32 image on either side.
// Each output sample is computed from its bilinear taps, and each tap from the
// record's bytes through img.Unit (and img.Luma for grayscale) — the same
// img.Tap, img.Bilerp, img.Luma and img.Unit expressions Apply runs, in the
// same order — and every row is quantized as it leaves the resampling loop
// (img.AppendQuantized). An output plane that is a stored plane unchanged
// (same geometry, no projection) is appended as stored, since quantizing
// img.Unit(b) gives back b; a channel transform touches one stored plane in
// three.
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
	var stack [stackTaps]colTap
	cols := t.taps(stack[:], rec)
	var rowStack [stackTaps]float32
	row := rowStack[:]
	if t.Size > stackTaps {
		row = make([]float32, t.Size)
	}
	row = row[:t.Size]
	var planes [3][]byte
	for c := range mode.Channels() {
		src := t.sourcePlanes(&planes, rec, c)
		if cols == nil && len(src) == 1 {
			dst = append(dst, src[0]...)
			continue
		}
		for y := range t.Size {
			resampleRow(row, src, rec.W, rec.H, y, cols)
			dst = img.AppendQuantized(dst, row)
		}
	}
	return dst
}

// modeOf is the mode of t's representation of rec. Mirroring Apply, an RGB
// transform keeps the record's own mode.
func (t Transform) modeOf(rec img.Record) img.ColorMode {
	if t.Color == img.RGB {
		return rec.Mode
	}
	return t.Color
}

// taps returns the column taps of t's resample of rec, in stack when they
// fit, or nil when rec already has t's geometry and no sample needs any.
func (t Transform) taps(stack []colTap, rec img.Record) []colTap {
	if rec.W == t.Size && rec.H == t.Size {
		return nil
	}
	cols := stack
	if t.Size > len(stack) {
		cols = make([]colTap, t.Size)
	}
	cols = cols[:t.Size]
	xScale := float32(rec.W) / float32(t.Size)
	for x := range cols {
		cols[x].x0, cols[x].x1, cols[x].fx = img.Tap(x, xScale, rec.W)
	}
	return cols
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

// resampleRow writes row y of the len(out)-square bilinear resample of a
// stored w×h image into out: of planes[0] alone, or of the grayscale
// projection of three planes, each tap projected as it is read. cols holds
// the column taps, nil when the image already has the output geometry; only
// a grayscale projection resamples at that geometry, since AppendRecord
// copies an unchanged plane as stored.
func resampleRow(out []float32, planes [][]byte, w, h, y int, cols []colTap) {
	size := len(out)
	if cols == nil {
		at := y * w
		r, g, b := planes[0][at:at+w], planes[1][at:at+w], planes[2][at:at+w]
		for x := range out {
			out[x] = img.Luma(img.Unit(r[x]), img.Unit(g[x]), img.Unit(b[x]))
		}
		return
	}
	y0, y1, fy := img.Tap(y, float32(h)/float32(size), h)
	top, bot := y0*w, y1*w
	if len(planes) == 1 {
		r0, r1 := planes[0][top:top+w], planes[0][bot:bot+w]
		for x, c := range cols {
			out[x] = img.Bilerp(img.Unit(r0[c.x0]), img.Unit(r0[c.x1]), img.Unit(r1[c.x0]), img.Unit(r1[c.x1]), c.fx, fy)
		}
		return
	}
	r, g, b := planes[0], planes[1], planes[2]
	luma := func(i int) float32 {
		return img.Luma(img.Unit(r[i]), img.Unit(g[i]), img.Unit(b[i]))
	}
	for x, c := range cols {
		out[x] = img.Bilerp(luma(top+c.x0), luma(top+c.x1), luma(bot+c.x0), luma(bot+c.x1), c.fx, fy)
	}
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
