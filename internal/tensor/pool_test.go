package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzPool holds the pooling epilogue (SSE assembly on amd64) to its Go
// model bit for bit: 1–9 pooled rows of every output width 0–40 (the 4-wide
// body, repeated steps and each scalar tail), odd and even sum row strides
// from 2·ow to 2·ow+3, slices starting 0–3 elements into their backing
// arrays (unaligned), and sums and bias drawn from raw float32 bit
// patterns, so ties of ±0, ±Inf, NaN and subnormals all occur. Elements
// past rows·ow must stay untouched.
func FuzzPool(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(40), uint8(2), uint8(1), uint8(1), axpySeed(axpySpecials...))
	f.Add(uint8(5), uint8(8), uint8(3), uint8(3), axpySeed(float32(math.Copysign(0, -1)), 0, -1, 0.5, float32(math.NaN())))
	f.Add(uint8(9), uint8(4), uint8(2), uint8(2), axpySeed(math.SmallestNonzeroFloat32, float32(math.Inf(-1)), 0, -0.25))
	f.Fuzz(func(t *testing.T, n, r, extra, shift uint8, data []byte) {
		ow, rows, off := int(n)%41, 1+int(r)%9, int(shift)%4
		pw := 2*ow + int(extra)%4
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
		// The last sum row carries an odd trailing column the kernel must
		// not read, as the rows before it carry pw−2·ow.
		acc := slice((2*rows-1)*pw + 2*ow + 1)
		out := slice(rows * ow)
		bias := val()

		got := append([]float32(nil), out[:rows*ow+guard]...)
		want := append([]float32(nil), out[:rows*ow+guard]...)
		PoolBiasReLU(got[:rows*ow], acc, ow, pw, rows, bias)
		poolPlaneGeneric(want[:rows*ow], acc, ow, pw, rows, bias)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("ow=%d pw=%d rows=%d off=%d bias=%v: element %d = %v (%#08x), Go model %v (%#08x)",
					ow, pw, rows, off, bias, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
			}
		}
	})
}

// TestPoolModelMatchesEpilogue: on finite sums the lane-exact model equals
// the epilogue it replaced — Go's max over the window, then
// max(m+bias, 0) — bit for bit, ±0 ties included, and never yields −0.
// Every window of nine values (±0, ±1, ±0.5, ±subnormal, MaxFloat32) meets
// every bias, packed into planes of 1–9 pooled rows, widths 1, 3, 4 and 7
// (the 4-wide body and scalar tails), odd and even row strides and bases
// 0–3 elements into their arrays. The sum columns the pool must not read
// hold +Inf, which would win any window that read them.
func TestPoolModelMatchesEpilogue(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	vals := []float32{0, negZero, 1, -1, 0.5, -0.5, 3e-39, -3e-39, math.MaxFloat32}
	var windows [][4]float32
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, d := range vals {
					windows = append(windows, [4]float32{a, b, c, d})
				}
			}
		}
	}
	type geom struct{ rows, ow, pw, off int }
	var geoms []geom
	for rows := 1; rows <= 9; rows++ {
		for _, ow := range []int{1, 3, 4, 7} {
			for _, extra := range []int{0, 1, 3} {
				geoms = append(geoms, geom{rows, ow, 2*ow + extra, (rows + ow + extra) % 4})
			}
		}
	}
	inf := float32(math.Inf(1))
	for _, bias := range []float32{0, negZero, 0.5, -0.5, 1} {
		for w, gi := 0, 0; w < len(windows); gi++ {
			g := geoms[gi%len(geoms)]
			acc := make([]float32, g.off+2*g.rows*g.pw)[g.off:]
			for i := range acc {
				acc[i] = inf
			}
			want := make([]float32, g.rows*g.ow)
			for y := 0; y < g.rows; y++ {
				for j := 0; j < g.ow; j++ {
					win := windows[w%len(windows)]
					w++
					r0, r1 := acc[2*y*g.pw+2*j:], acc[(2*y+1)*g.pw+2*j:]
					r0[0], r0[1], r1[0], r1[1] = win[0], win[1], win[2], win[3]
					want[y*g.ow+j] = max(max(max(win[0], win[1]), max(win[2], win[3]))+bias, 0)
				}
			}
			out := make([]float32, g.off+len(want))[g.off:]
			PoolBiasReLU(out, acc, g.ow, g.pw, g.rows, bias)
			for i := range want {
				if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%+v bias %v: output %d = %v (%#08x), want %v (%#08x)",
						g, bias, i, out[i], math.Float32bits(out[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestPoolBiasReLUPanicsOnShortOperands: each of the three bounds the
// assembly relies on is checked before it runs.
func TestPoolBiasReLUPanicsOnShortOperands(t *testing.T) {
	const ow, pw, rows = 4, 9, 3
	accLen := (2*rows-1)*pw + 2*ow
	for _, c := range []struct {
		name         string
		out, acc, pw int
	}{
		{"out under rows·ow", rows*ow - 1, accLen, pw},
		{"stride under 2·ow", rows * ow, accLen, 2*ow - 1},
		{"acc under its last read", rows * ow, accLen - 1, pw},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			PoolBiasReLU(make([]float32, c.out), make([]float32, c.acc), ow, c.pw, rows, 0)
		})
	}
	// At exactly the bounds it runs.
	PoolBiasReLU(make([]float32, rows*ow), make([]float32, accLen), ow, pw, rows, 0)
}
