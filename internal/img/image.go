// Package img provides the image representation TAHOMA's models consume:
// planar CHW float32 images with values in [0,1], together with the physical
// representation operations the paper's input-transformation functions are
// built on — bilinear resizing, color-channel extraction, grayscale
// conversion and horizontal flipping — and a compact on-disk codec.
package img

import "fmt"

// ColorMode identifies the channel layout of an image.
type ColorMode uint8

// Channel layouts. RGB is 3 planes; the single-channel modes record which
// projection produced the plane so that data-handling costs can be accounted
// per representation.
const (
	RGB ColorMode = iota
	Red
	Green
	Blue
	Gray
)

// String returns the short name used in transform IDs ("rgb", "r", ...).
func (m ColorMode) String() string {
	switch m {
	case RGB:
		return "rgb"
	case Red:
		return "r"
	case Green:
		return "g"
	case Blue:
		return "b"
	case Gray:
		return "gray"
	default:
		return fmt.Sprintf("ColorMode(%d)", uint8(m))
	}
}

// Channels returns the number of planes for the mode.
func (m ColorMode) Channels() int {
	if m == RGB {
		return 3
	}
	return 1
}

// Image is a planar (channel-major) float32 image with values nominally in
// [0,1]. Pix holds C×H×W values: plane c starts at offset c*H*W.
type Image struct {
	W, H int
	Mode ColorMode
	Pix  []float32
}

// New returns a zero-filled image of the given size and mode.
func New(w, h int, mode ColorMode) *Image {
	return &Image{W: w, H: h, Mode: mode, Pix: make([]float32, mode.Channels()*w*h)}
}

// Channels returns the number of planes.
func (im *Image) Channels() int { return im.Mode.Channels() }

// At returns the value of channel c at (x, y). No bounds checking beyond the
// slice's own.
func (im *Image) At(c, x, y int) float32 {
	return im.Pix[c*im.W*im.H+y*im.W+x]
}

// Set stores v into channel c at (x, y).
func (im *Image) Set(c, x, y int, v float32) {
	im.Pix[c*im.W*im.H+y*im.W+x] = v
}

// Plane returns the sub-slice for channel c.
func (im *Image) Plane(c int) []float32 {
	n := im.W * im.H
	return im.Pix[c*n : (c+1)*n]
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Mode: im.Mode, Pix: make([]float32, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Bytes returns the in-memory footprint of the pixel data in bytes, used by
// analytic cost models to account for loading costs.
func (im *Image) Bytes() int { return len(im.Pix) * 4 }

// StoredBytes returns the size of the image when stored in the TIMG uint8
// format (header + one byte per sample), used to model disk load costs.
func (im *Image) StoredBytes() int { return timgHeaderSize + len(im.Pix) }

// Clamp clips all samples into [0,1] in place and returns the image.
func (im *Image) Clamp() *Image {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
	return im
}

// tap, bilerp and luma are the per-sample arithmetic of the float32
// representation transforms (ResizeInto, ToGrayInto), which training scores.
// Every product is rounded by an explicit float32 conversion before it is
// added — the Go spec's barrier against fusing the two into one multiply-add
// — so a trained model is the same on every GOARCH. Stored and served
// representations do not come from here: xform.Transform.AppendRecord
// derives them from records in exact integer arithmetic, within 1 of the
// stored form of these samples.

// tap returns the two source coordinates and the blend weight bilinear
// resampling uses for destination coordinate i along an axis of srcN
// samples; scale is float32(srcN)/float32(dstN). Coordinates clamp at the
// borders (nearest sample).
func tap(i int, scale float32, srcN int) (i0, i1 int, f float32) {
	s := float32((float32(i)+0.5)*scale) - 0.5
	if s < 0 {
		s = 0
	}
	i0 = int(s)
	i1 = i0 + 1
	if i1 >= srcN {
		i1 = srcN - 1
	}
	return i0, i1, s - float32(i0)
}

// bilerp blends four neighbouring samples: along x within the top and bottom
// rows, then along y between them.
func bilerp(v00, v01, v10, v11, fx, fy float32) float32 {
	top := v00 + float32((v01-v00)*fx)
	bot := v10 + float32((v11-v10)*fx)
	return top + float32((bot-top)*fy)
}

// luma is the Rec.601 grayscale projection of one pixel.
func luma(r, g, b float32) float32 {
	return float32(0.299*r) + float32(0.587*g) + float32(0.114*b)
}

// Resize returns a new image of size w×h using bilinear interpolation
// (nearest-sample at the borders). Shrinking large factors uses simple
// bilinear sampling, which is what lightweight ingest pipelines typically do.
func Resize(src *Image, w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid resize target %dx%d", w, h))
	}
	dst := New(w, h, src.Mode)
	ResizeInto(dst, src)
	return dst
}

// ResizeInto is Resize into a caller-owned destination, the allocation-free
// primitive the execution engine's pooled representation buffers are built
// on. dst's geometry selects the target size; its channel count must match
// src's. The samples written are bit-identical to Resize's.
func ResizeInto(dst, src *Image) {
	if dst.Channels() != src.Channels() {
		panic(fmt.Sprintf("img: ResizeInto %v -> %v channel mismatch", src.Mode, dst.Mode))
	}
	w, h := dst.W, dst.H
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return
	}
	xScale := float32(src.W) / float32(w)
	yScale := float32(src.H) / float32(h)
	for c := 0; c < src.Channels(); c++ {
		sp := src.Plane(c)
		dp := dst.Plane(c)
		for y := 0; y < h; y++ {
			y0, y1, fy := tap(y, yScale, src.H)
			for x := 0; x < w; x++ {
				x0, x1, fx := tap(x, xScale, src.W)
				dp[y*w+x] = bilerp(sp[y0*src.W+x0], sp[y0*src.W+x1], sp[y1*src.W+x0], sp[y1*src.W+x1], fx, fy)
			}
		}
	}
}

// ExtractChannel returns the single-channel image for one of Red, Green,
// Blue. For a source that is already single-channel it returns a copy with
// the requested mode label. Requesting a channel from a Gray image is allowed
// (the plane is reused) because a grayscale camera feed has only one plane.
func ExtractChannel(src *Image, mode ColorMode) *Image {
	out := New(src.W, src.H, mode)
	ExtractChannelInto(out, src, mode)
	return out
}

// ExtractChannelInto is ExtractChannel into a caller-owned single-channel
// destination of the same size as src.
func ExtractChannelInto(dst, src *Image, mode ColorMode) {
	var idx int
	switch mode {
	case Red:
		idx = 0
	case Green:
		idx = 1
	case Blue:
		idx = 2
	default:
		panic(fmt.Sprintf("img: ExtractChannel mode must be Red/Green/Blue, got %v", mode))
	}
	if dst.W != src.W || dst.H != src.H || dst.Channels() != 1 {
		panic(fmt.Sprintf("img: ExtractChannelInto destination %dx%d/%d for source %dx%d", dst.W, dst.H, dst.Channels(), src.W, src.H))
	}
	if src.Mode != RGB {
		copy(dst.Pix, src.Plane(0))
		return
	}
	copy(dst.Pix, src.Plane(idx))
}

// ToGray converts to single-channel grayscale using the Rec.601 luma weights.
// Single-channel inputs are copied with the Gray label.
func ToGray(src *Image) *Image {
	out := New(src.W, src.H, Gray)
	ToGrayInto(out, src)
	return out
}

// ToGrayInto is ToGray into a caller-owned single-channel destination of the
// same size as src.
func ToGrayInto(dst, src *Image) {
	if dst.W != src.W || dst.H != src.H || dst.Channels() != 1 {
		panic(fmt.Sprintf("img: ToGrayInto destination %dx%d/%d for source %dx%d", dst.W, dst.H, dst.Channels(), src.W, src.H))
	}
	if src.Mode != RGB {
		copy(dst.Pix, src.Plane(0))
		return
	}
	r, g, b := src.Plane(0), src.Plane(1), src.Plane(2)
	for i := range dst.Pix {
		dst.Pix[i] = luma(r[i], g[i], b[i])
	}
}

// FlipH returns the image mirrored left-to-right (the paper's data
// augmentation).
func FlipH(src *Image) *Image {
	out := New(src.W, src.H, src.Mode)
	for c := 0; c < src.Channels(); c++ {
		sp, dp := src.Plane(c), out.Plane(c)
		for y := 0; y < src.H; y++ {
			row := y * src.W
			for x := 0; x < src.W; x++ {
				dp[row+x] = sp[row+src.W-1-x]
			}
		}
	}
	return out
}
