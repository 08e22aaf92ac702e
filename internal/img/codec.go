package img

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// TIMG is the raw on-disk image format used by the representation store:
// a fixed header followed by one uint8 per sample (plane-major, the same
// layout as Image.Pix quantized to 1/255 steps).
//
//	offset 0: magic "TIMG" (4 bytes)
//	offset 4: version (1 byte, currently 1)
//	offset 5: color mode (1 byte)
//	offset 6: width  (uint16 little-endian)
//	offset 8: height (uint16 little-endian)
//	offset 10: samples (uint8 × C·H·W)

const (
	timgMagic      = "TIMG"
	timgVersion    = 1
	timgHeaderSize = 10
)

// MaxSide is the largest width or height a TIMG header can hold.
const MaxSide = 0xFFFF

// ErrCorrupt is returned (wrapped) when decoding fails due to a bad header or
// truncated pixel data.
var ErrCorrupt = errors.New("img: corrupt TIMG data")

// unit maps a stored sample to its float32 value: unit[b] == float32(b)/255,
// the division done once per level instead of once per sample.
var unit = func() (t [256]float32) {
	for b := range t {
		t[b] = float32(b) / 255
	}
	return t
}()

// Unit returns the float32 value of stored sample b, exactly float32(b)/255.
func Unit(b byte) float32 { return unit[b] }

// UnitsInto sets dst[i] = Unit(src[i]) for every stored sample of src: the
// one loop that expands stored bytes, a served representation's whole cost.
// It is unrolled by eight, which halves its time on a 256-sample plane.
func UnitsInto(dst []float32, src []byte) {
	dst = dst[:len(src)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = unit[s[0]], unit[s[1]], unit[s[2]], unit[s[3]]
		d[4], d[5], d[6], d[7] = unit[s[4]], unit[s[5]], unit[s[6]], unit[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] = unit[src[i]]
	}
}

// Record is a validated TIMG record viewed in place: the geometry from its
// header and the stored samples, still one byte each. Pix aliases the parsed
// bytes, so a Record is as immutable as the slice it came from.
type Record struct {
	W, H int
	Mode ColorMode
	Pix  []byte // C·H·W samples, plane-major
}

// Plane returns the stored samples of channel c.
func (r Record) Plane(c int) []byte {
	n := r.W * r.H
	return r.Pix[c*n : (c+1)*n]
}

// StoredBytes returns the length of the record the view was parsed from.
func (r Record) StoredBytes() int { return timgHeaderSize + len(r.Pix) }

// AppendTo appends the record as stored — header and samples, the bytes it was
// parsed from — to dst and returns the extended slice: how a record moves
// between a request body, the journal and a data file without ever being
// expanded and re-quantized.
func (r Record) AppendTo(dst []byte) []byte {
	return append(r.AppendHeader(dst), r.Pix...)
}

// AppendHeader appends just the record's TIMG header: with Pix, the two
// pieces of the stored record, for a writer that gathers instead of copying.
func (r Record) AppendHeader(dst []byte) []byte {
	return appendHeader(dst, r.W, r.H, r.Mode)
}

// Image expands the record into a fresh float32 image.
func (r Record) Image() *Image {
	im := New(r.W, r.H, r.Mode)
	UnitsInto(im.Pix, r.Pix)
	return im
}

// parseHeader is the one TIMG validator: magic, version, color mode and
// non-zero dimensions. It returns the record's geometry (Pix unset) and the
// sample count the header promises; nothing is allocated from those numbers
// here.
func parseHeader(hdr []byte) (rec Record, samples int, err error) {
	if len(hdr) < timgHeaderSize {
		return Record{}, 0, fmt.Errorf("%w: short header: %d bytes", ErrCorrupt, len(hdr))
	}
	if string(hdr[:4]) != timgMagic {
		return Record{}, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if hdr[4] != timgVersion {
		return Record{}, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr[4])
	}
	rec.Mode = ColorMode(hdr[5])
	if rec.Mode > Gray {
		return Record{}, 0, fmt.Errorf("%w: unknown color mode %d", ErrCorrupt, hdr[5])
	}
	rec.W = int(binary.LittleEndian.Uint16(hdr[6:8]))
	rec.H = int(binary.LittleEndian.Uint16(hdr[8:10]))
	if rec.W == 0 || rec.H == 0 {
		return Record{}, 0, fmt.Errorf("%w: zero dimension %dx%d", ErrCorrupt, rec.W, rec.H)
	}
	n := int64(rec.Mode.Channels()) * int64(rec.W) * int64(rec.H)
	if n > math.MaxInt {
		return Record{}, 0, fmt.Errorf("%w: %dx%d/%v does not fit this platform's int", ErrCorrupt, rec.W, rec.H, rec.Mode)
	}
	return rec, int(n), nil
}

// ParseRecord validates one complete TIMG record held in memory and returns
// a view of it. The header's promise is checked against the bytes actually
// present — len(raw) must be exactly header + C·W·H — before anything is
// sized from it, so a hostile header costs nothing.
func ParseRecord(raw []byte) (Record, error) {
	rec, samples, err := parseHeader(raw)
	if err != nil {
		return Record{}, err
	}
	if len(raw)-timgHeaderSize != samples {
		return Record{}, fmt.Errorf("%w: %dx%d/%v record holds %d sample bytes, header implies %d",
			ErrCorrupt, rec.W, rec.H, rec.Mode, len(raw)-timgHeaderSize, samples)
	}
	rec.Pix = raw[timgHeaderSize:]
	return rec, nil
}

// AppendRecord appends im's TIMG encoding to dst and returns the extended
// slice. Samples are clamped to [0,1] and quantized to 8 bits.
func AppendRecord(dst []byte, im *Image) ([]byte, error) {
	if im.W > MaxSide || im.H > MaxSide {
		return dst, fmt.Errorf("img: image %dx%d too large for TIMG", im.W, im.H)
	}
	dst = appendHeader(slices.Grow(dst, im.StoredBytes()), im.W, im.H, im.Mode)
	return appendQuantized(dst, im.Pix), nil
}

// appendQuantized appends the stored form of every sample of src to dst —
// clamped to [0,1] and rounded to the nearest 1/255 step — and returns the
// extended slice: how AppendRecord encodes an image. For every byte b,
// quantizing Unit(b) gives back b. Like UnitsInto it is
// unrolled by eight, which takes a third off a 32×32 RGB record.
func appendQuantized(dst []byte, src []float32) []byte {
	dst = slices.Grow(dst, len(src))
	start := len(dst)
	dst = dst[:start+len(src)]
	out := dst[start:]
	src = src[:len(out)]
	i := 0
	for ; i+8 <= len(out); i += 8 {
		s, d := src[i:i+8:i+8], out[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = quant(s[0]), quant(s[1]), quant(s[2]), quant(s[3])
		d[4], d[5], d[6], d[7] = quant(s[4]), quant(s[5]), quant(s[6]), quant(s[7])
	}
	for ; i < len(out); i++ {
		out[i] = quant(src[i])
	}
	return dst
}

// appendHeader appends the TIMG header of a w×h image in the given mode.
func appendHeader(dst []byte, w, h int, mode ColorMode) []byte {
	dst = append(dst, timgMagic...)
	dst = append(dst, timgVersion, byte(mode))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(w))
	return binary.LittleEndian.AppendUint16(dst, uint16(h))
}

// Encode writes im in TIMG format (see AppendRecord).
func Encode(w io.Writer, im *Image) error {
	rec, err := AppendRecord(nil, im)
	if err != nil {
		return err
	}
	if _, err := w.Write(rec); err != nil {
		return fmt.Errorf("img: writing TIMG record: %w", err)
	}
	return nil
}

// EncodedSize returns the TIMG byte size for an image of the given geometry.
func EncodedSize(w, h int, mode ColorMode) int {
	return timgHeaderSize + mode.Channels()*w*h
}

// decodeChunk bounds how far Decode's read buffer runs ahead of the bytes a
// reader has actually delivered.
const decodeChunk = 32 << 10

// Decode reads one TIMG image from r. The sample bytes are read before the
// float32 planes are allocated, into a buffer that only grows as data
// arrives, so a header promising gigabytes over a short body fails with
// ErrCorrupt after a bounded allocation.
func Decode(r io.Reader) (*Image, error) {
	var hdr [timgHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	rec, samples, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	pix := make([]byte, 0, min(samples, decodeChunk))
	for len(pix) < samples {
		if len(pix) == cap(pix) {
			grown := make([]byte, len(pix), min(samples, 2*cap(pix)))
			copy(grown, pix)
			pix = grown
		}
		n, err := io.ReadFull(r, pix[len(pix):cap(pix)])
		pix = pix[:len(pix)+n]
		if err != nil {
			return nil, fmt.Errorf("%w: short pixel data: %v", ErrCorrupt, err)
		}
	}
	rec.Pix = pix
	return rec.Image(), nil
}

func quant(v float32) byte {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	// The explicit conversion rounds the product before the add: the Go
	// spec forbids fusing across it, so no GOARCH turns this into one
	// multiply-add that rounds once.
	return byte(float32(v*255) + 0.5)
}
