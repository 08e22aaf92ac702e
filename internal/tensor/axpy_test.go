package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// axpySpecials seeds the fuzzer with the values whose rounding is easiest to
// get wrong: signed zeros, infinities, NaN, subnormals and the extremes.
var axpySpecials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -3.5e-3,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1.1754942e-38,
	math.MaxFloat32, -math.MaxFloat32, 3.4e38, 1 << 20,
}

func axpySeed(vals ...float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// sameBits is bit equality, except that any two NaNs match: which payload
// survives when two NaNs meet depends on an operand order the compiler is
// free to choose, and nothing downstream can tell NaNs apart.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// FuzzAxpy holds the multiply-add kernels (SSE assembly on amd64) to the Go
// loops bit for bit: every length 0–70 (each 8-, 4- and 1-wide tail),
// slices starting 0–3 elements into their backing arrays (unaligned), and
// operands drawn from raw float32 bit patterns, so ±0, ±Inf, NaN and
// subnormals all occur. Elements past len(c) must stay untouched.
func FuzzAxpy(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(70), uint8(1), axpySeed(axpySpecials...))
	f.Add(uint8(13), uint8(3), axpySeed(1, -1, 0.5, float32(math.Copysign(0, -1)), 2))
	f.Add(uint8(8), uint8(2), axpySeed(math.SmallestNonzeroFloat32, float32(math.Inf(1)), 0))
	f.Fuzz(func(t *testing.T, n, shift uint8, data []byte) {
		length, off := int(n)%71, int(shift)%4
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
		slice := func() []float32 {
			s := make([]float32, off+length+guard)
			for i := range s {
				s[i] = val()
			}
			return s[off : off+length]
		}
		c, b0, b1, b2, b3 := slice(), slice(), slice(), slice(), slice()
		a0, a1, a2, a3 := val(), val(), val(), val()

		check := func(name string, got, want []float32) {
			t.Helper()
			for j := range got[:length+guard] {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("%s len=%d off=%d: element %d = %v (%#08x), Go loop %v (%#08x)",
						name, length, off, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
				}
			}
		}
		got := append([]float32(nil), c[:length+guard]...)
		want := append([]float32(nil), c[:length+guard]...)
		axpy4(got[:length], b0, b1, b2, b3, a0, a1, a2, a3)
		axpy4Generic(want[:length], b0, b1, b2, b3, a0, a1, a2, a3)
		check("axpy4", got, want)

		got = append(got[:0], c[:length+guard]...)
		want = append(want[:0], c[:length+guard]...)
		axpy(got[:length], b0, a0)
		axpyGeneric(want[:length], b0, a0)
		check("axpy", got, want)
	})
}
