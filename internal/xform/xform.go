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

// ApplyInto is Apply into caller-owned buffers: the allocation-free
// materialization primitive behind the execution engine's pooled
// representation slots. dst receives the representation and is reused when
// its geometry matches what Apply would produce for src (otherwise a fresh
// image is allocated); proj is an optional scratch for the intermediate
// full-resolution color projection, reused the same way. The image actually
// holding the representation and the (possibly newly allocated) projection
// scratch are returned; pixel values are bit-identical to Apply's.
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

// stackTaps is how many column taps ApplyRecord keeps on its stack; wider
// representations take one small allocation per call.
const stackTaps = 128

// ApplyRecord is ApplyInto over a stored record: the load path's one pass
// from the bytes a store holds to the float32 representation a model reads.
// Each output sample is computed from its bilinear taps, and each tap from
// the record's bytes through img.Unit (and img.Luma for grayscale) — no
// float32 source image and no projection plane are built, and a channel
// transform touches one stored plane in three. dst is reused when its
// geometry matches (otherwise a fresh image is allocated) and the image
// holding the representation is returned.
//
// The samples are bit-identical to Apply over the decoded record: the same
// img.Tap, img.Bilerp, img.Luma and img.Unit expressions run in the same
// order, only without the intermediate images in between.
func (t Transform) ApplyRecord(dst *img.Image, rec img.Record) *img.Image {
	// Mirror ApplyInto: an RGB transform keeps the record's own mode, and
	// every projection of a single-plane record reads that plane.
	mode := t.Color
	if t.Color == img.RGB {
		mode = rec.Mode
	}
	if dst == nil || dst.W != t.Size || dst.H != t.Size || dst.Mode != mode {
		dst = img.New(t.Size, t.Size, mode)
	}
	if rec.W == t.Size && rec.H == t.Size && rec.Mode == mode {
		// The record already is the representation (a served rep): expand
		// it in one pass, with no taps to build.
		img.UnitsInto(dst.Pix, rec.Pix)
		return dst
	}
	var stack [stackTaps]colTap
	cols := stack[:]
	if t.Size > stackTaps {
		cols = make([]colTap, t.Size)
	}
	cols = cols[:t.Size]
	xScale := float32(rec.W) / float32(t.Size)
	for x := range cols {
		cols[x].x0, cols[x].x1, cols[x].fx = img.Tap(x, xScale, rec.W)
	}
	switch {
	case rec.Mode != img.RGB:
		resizePlane(dst.Pix, rec.Plane(0), rec.W, rec.H, cols)
	case t.Color == img.RGB:
		for c := 0; c < 3; c++ {
			resizePlane(dst.Plane(c), rec.Plane(c), rec.W, rec.H, cols)
		}
	case t.Color == img.Gray:
		resizeLuma(dst.Pix, rec.Plane(0), rec.Plane(1), rec.Plane(2), rec.W, rec.H, cols)
	default:
		resizePlane(dst.Pix, rec.Plane(int(t.Color-img.Red)), rec.W, rec.H, cols)
	}
	return dst
}

// resizePlane writes the len(cols)-square bilinear resample of one stored
// w×h plane into dst.
func resizePlane(dst []float32, src []byte, w, h int, cols []colTap) {
	size := len(cols)
	if w == size && h == size {
		img.UnitsInto(dst, src)
		return
	}
	yScale := float32(h) / float32(size)
	for y := 0; y < size; y++ {
		y0, y1, fy := img.Tap(y, yScale, h)
		r0, r1 := src[y0*w:(y0+1)*w], src[y1*w:(y1+1)*w]
		out := dst[y*size : (y+1)*size]
		for x, c := range cols {
			out[x] = img.Bilerp(img.Unit(r0[c.x0]), img.Unit(r0[c.x1]), img.Unit(r1[c.x0]), img.Unit(r1[c.x1]), c.fx, fy)
		}
	}
}

// resizeLuma is resizePlane over the grayscale projection of three stored
// planes, projecting each tap as it is read.
func resizeLuma(dst []float32, r, g, b []byte, w, h int, cols []colTap) {
	size := len(cols)
	if w == size && h == size {
		for i := range dst {
			dst[i] = img.Luma(img.Unit(r[i]), img.Unit(g[i]), img.Unit(b[i]))
		}
		return
	}
	luma := func(row, x int) float32 {
		i := row + x
		return img.Luma(img.Unit(r[i]), img.Unit(g[i]), img.Unit(b[i]))
	}
	yScale := float32(h) / float32(size)
	for y := 0; y < size; y++ {
		y0, y1, fy := img.Tap(y, yScale, h)
		top, bot := y0*w, y1*w
		out := dst[y*size : (y+1)*size]
		for x, c := range cols {
			out[x] = img.Bilerp(luma(top, c.x0), luma(top, c.x1), luma(bot, c.x0), luma(bot, c.x1), c.fx, fy)
		}
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
