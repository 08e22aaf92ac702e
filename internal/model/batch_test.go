package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

func randRep(rng *rand.Rand, size int, mode img.ColorMode) *img.Image {
	im := img.New(size, size, mode)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

// TestScoreBatchBitParity: for every architecture/transform pairing and
// every batch size, ScoreBatch must produce float32 scores bit-identical to
// per-frame Score — the property the level-major executor's correctness
// rests on.
func TestScoreBatchBitParity(t *testing.T) {
	cases := []struct {
		spec arch.Spec
		xf   xform.Transform
	}{
		{arch.Spec{ConvLayers: 0, ConvWidth: 0, DenseWidth: 4, Kernel: 3}, xform.Transform{Size: 8, Color: img.Gray}},
		{arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3}, xform.Transform{Size: 16, Color: img.RGB}},
		{arch.Spec{ConvLayers: 2, ConvWidth: 8, DenseWidth: 16, Kernel: 3}, xform.Transform{Size: 16, Color: img.Gray}},
		{arch.Spec{ConvLayers: 2, ConvWidth: 4, DenseWidth: 8, Kernel: 5}, xform.Transform{Size: 32, Color: img.Blue}},
	}
	for ci, tc := range cases {
		m, err := New(tc.spec, tc.xf, Basic, 500+int64(ci))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(600 + int64(ci)))
		reps := make([]*img.Image, 33)
		want := make([]float32, len(reps))
		for i := range reps {
			reps[i] = randRep(rng, tc.xf.Size, tc.xf.Color)
			s, err := m.Score(reps[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = s
		}
		for _, bsz := range []int{1, 2, 7, 16, 33} {
			t.Run(fmt.Sprintf("case=%d/b=%d", ci, bsz), func(t *testing.T) {
				got, err := m.ScoreBatch(reps[:bsz])
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < bsz; i++ {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("rep %d: batch score %v != per-frame score %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestScoreBatchValidation(t *testing.T) {
	m, err := New(testSpec, xform.Transform{Size: 16, Color: img.Gray}, Basic, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	good := randRep(rng, 16, img.Gray)
	bad := randRep(rng, 8, img.Gray)
	if _, err := m.ScoreBatch([]*img.Image{good, bad}); err == nil {
		t.Fatal("geometry mismatch inside a batch must error")
	}
	if err := m.ScoreBatchInto([]*img.Image{good}, make([]float32, 2)); err == nil {
		t.Fatal("output length mismatch must error")
	}
	out, err := m.ScoreBatch(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// TestScoreBatchCloneIndependence: concurrent batch scoring through clones
// must match the parent's sequential answers (clones share weights, not
// scratch).
func TestScoreBatchCloneIndependence(t *testing.T) {
	m, err := New(testSpec, xform.Transform{Size: 16, Color: img.Gray}, Basic, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	reps := make([]*img.Image, 24)
	for i := range reps {
		reps[i] = randRep(rng, 16, img.Gray)
	}
	want, err := m.ScoreBatch(reps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []float32, 2)
	for g := 0; g < 2; g++ {
		go func() {
			c := m.Clone()
			var last []float32
			for iter := 0; iter < 5; iter++ {
				out, err := c.ScoreBatch(reps)
				if err != nil {
					done <- nil
					return
				}
				last = out
			}
			done <- last
		}()
	}
	for g := 0; g < 2; g++ {
		got := <-done
		if got == nil {
			t.Fatal("clone scoring failed")
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("clone score %d = %v, parent = %v", i, got[i], want[i])
			}
		}
	}
}
