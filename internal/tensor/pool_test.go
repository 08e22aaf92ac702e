package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzPool holds the pooling epilogue (SSE assembly on amd64) to its Go
// model bit for bit: every output length 0–40 (the 4-wide body, repeated
// steps and each scalar tail), slices starting 0–3 elements into their
// backing arrays (unaligned), and rows and bias drawn from raw float32 bit
// patterns, so ties of ±0, ±Inf, NaN and subnormals all occur. Elements past
// len(out) must stay untouched.
func FuzzPool(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(40), uint8(1), axpySeed(axpySpecials...))
	f.Add(uint8(5), uint8(3), axpySeed(float32(math.Copysign(0, -1)), 0, -1, 0.5, float32(math.NaN())))
	f.Add(uint8(9), uint8(2), axpySeed(math.SmallestNonzeroFloat32, float32(math.Inf(-1)), 0, -0.25))
	f.Fuzz(func(t *testing.T, n, shift uint8, data []byte) {
		length, off := int(n)%41, int(shift)%4
		next := 0
		val := func() float32 {
			defer func() { next++ }()
			if len(data) < 4 {
				return axpySpecials[next%len(axpySpecials)]
			}
			i := 4 * (next % (len(data) / 4))
			return math.Float32frombits(binary.LittleEndian.Uint32(data[i:]))
		}
		const guard = 3
		slice := func(n int) []float32 {
			s := make([]float32, off+n+guard)
			for i := range s {
				s[i] = val()
			}
			return s[off : off+n]
		}
		// The rows carry an odd trailing column the kernel must not read.
		r0, r1 := slice(2*length+1), slice(2*length+1)
		out := slice(length)
		bias := val()

		got := append([]float32(nil), out[:length+guard]...)
		want := append([]float32(nil), out[:length+guard]...)
		poolRow(got[:length], r0, r1, bias)
		poolRowGeneric(want[:length], r0, r1, bias)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("len=%d off=%d bias=%v: element %d = %v (%#08x), Go model %v (%#08x)",
					length, off, bias, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
			}
		}
	})
}

// TestPoolModelMatchesEpilogue: on finite sums the lane-exact model equals
// the epilogue it replaced — Go's max over the window, then
// max(m+bias, 0) — bit for bit, ±0 ties included, and never yields −0.
func TestPoolModelMatchesEpilogue(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	vals := []float32{0, negZero, 1, -1, 0.5, -0.5, 3e-39, -3e-39, math.MaxFloat32}
	out, r0, r1 := make([]float32, 1), make([]float32, 2), make([]float32, 2)
	for _, bias := range []float32{0, negZero, 0.5, -0.5, 1} {
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					for _, d := range vals {
						r0[0], r0[1], r1[0], r1[1] = a, b, c, d
						PoolBiasReLU(out, r0, r1, bias)
						want := max(max(max(a, b), max(c, d))+bias, 0)
						if math.Float32bits(out[0]) != math.Float32bits(want) {
							t.Fatalf("window %v %v %v %v bias %v: %v (%#08x), want %v (%#08x)",
								a, b, c, d, bias, out[0], math.Float32bits(out[0]), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}
