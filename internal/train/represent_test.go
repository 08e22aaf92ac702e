package train

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tahoma/internal/img"
	"tahoma/internal/xform"
)

func randImage(rng *rand.Rand, w, h int, mode img.ColorMode) *img.Image {
	im := img.New(w, h, mode)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

// TestResizeConstantImage: resampling a constant image yields the same
// constant at any target size (property-based).
func TestResizeConstantImage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := rng.Float32()
		src := img.New(3+rng.Intn(20), 3+rng.Intn(20), img.RGB)
		for i := range src.Pix {
			src.Pix[i] = v
		}
		dst := represent(xform.Transform{Size: 2 + rng.Intn(24), Color: img.RGB}, src)
		for _, p := range dst.Pix {
			if d := p - v; d > 1e-5 || d < -1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResizeSameSizeIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := randImage(rng, 7, 7, img.RGB)
	dst := represent(xform.Transform{Size: 7, Color: img.RGB}, src)
	for i := range src.Pix {
		if dst.Pix[i] != src.Pix[i] {
			t.Fatal("same-size resize altered pixels")
		}
	}
	dst.Pix[0] = -1
	if src.Pix[0] == -1 {
		t.Fatal("same-size resize shares memory")
	}
}

func TestResizePreservesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randImage(rng, 16, 9, img.RGB)
	dst := represent(xform.Transform{Size: 5, Color: img.RGB}, src)
	if dst.W != 5 || dst.H != 5 || dst.Mode != img.RGB {
		t.Fatalf("geometry %dx%d/%v", dst.W, dst.H, dst.Mode)
	}
	for _, p := range dst.Pix {
		if p < 0 || p > 1 {
			t.Fatalf("bilinear produced out-of-range %v", p)
		}
	}
}

func TestResizeDownThenUpRoughlyPreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randImage(rng, 32, 32, img.Gray)
	down := represent(xform.Transform{Size: 8, Color: img.Gray}, src)
	var m1, m2 float64
	for _, p := range src.Pix {
		m1 += float64(p)
	}
	for _, p := range down.Pix {
		m2 += float64(p)
	}
	m1 /= float64(len(src.Pix))
	m2 /= float64(len(down.Pix))
	if d := m1 - m2; d > 0.05 || d < -0.05 {
		t.Fatalf("mean drifted: %v vs %v", m1, m2)
	}
}

func TestResizePanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	represent(xform.Transform{Size: 0, Color: img.Gray}, img.New(2, 2, img.Gray))
}

func TestExtractChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randImage(rng, 4, 4, img.RGB)
	for i, mode := range []img.ColorMode{img.Red, img.Green, img.Blue} {
		out := represent(xform.Transform{Size: 4, Color: mode}, src)
		if out.Mode != mode || out.Channels() != 1 {
			t.Fatalf("mode wrong: %v", out.Mode)
		}
		plane := src.Plane(i)
		for j := range plane {
			if out.Pix[j] != plane[j] {
				t.Fatalf("channel %v content wrong", mode)
			}
		}
	}
	// From single-channel input, extraction reuses the only plane.
	g := randImage(rng, 4, 4, img.Gray)
	out := represent(xform.Transform{Size: 4, Color: img.Red}, g)
	for j := range g.Pix {
		if out.Pix[j] != g.Pix[j] {
			t.Fatal("single-channel extraction should copy the plane")
		}
	}
}

// TestExtractChannelPanicsOnUnknownMode: a colour outside the five is a
// caller error, not a plane index.
func TestExtractChannelPanicsOnUnknownMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	represent(xform.Transform{Size: 2, Color: img.ColorMode(9)}, img.New(2, 2, img.RGB))
}

func TestToGray(t *testing.T) {
	gray := xform.Transform{Size: 2, Color: img.Gray}
	src := img.New(2, 2, img.RGB)
	for i := range 4 {
		src.Pix[i], src.Pix[4+i], src.Pix[8+i] = 1, 0.5, 0.25
	}
	g := represent(gray, src)
	want := float32(0.299*1 + 0.587*0.5 + 0.114*0.25)
	if d := g.Pix[0] - want; d > 1e-6 || d < -1e-6 {
		t.Fatalf("gray = %v, want %v", g.Pix[0], want)
	}
	// Gray of an already-gray image is the identity.
	g2 := represent(gray, g)
	if g2.Pix[0] != g.Pix[0] {
		t.Fatal("gray of gray changed values")
	}
	// A neutral image (r=g=b) maps to that value.
	n := img.New(2, 2, img.RGB)
	for i := range n.Pix {
		n.Pix[i] = 0.7
	}
	if d := represent(gray, n).Pix[0] - 0.7; d > 1e-6 || d < -1e-6 {
		t.Fatal("neutral gray conversion wrong")
	}
}

func TestApplyGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := randImage(rng, 64, 64, img.RGB)
	for _, tr := range xform.Grid([]int{8, 32}, xform.AllColors) {
		out := represent(tr, src)
		if out.W != tr.Size || out.H != tr.Size {
			t.Fatalf("%s produced %dx%d", tr.ID(), out.W, out.H)
		}
		if out.Channels() != tr.Channels() {
			t.Fatalf("%s produced %d channels", tr.ID(), out.Channels())
		}
	}
}

// TestColorProjectionCommutesWithResize: projecting then resizing equals
// resizing then projecting (both are linear), which justifies applying the
// cheap order.
func TestColorProjectionCommutesWithResize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randImage(rng, 16, 16, img.RGB)
		tr := xform.Transform{Size: 4 + rng.Intn(8), Color: img.Gray}
		a := represent(tr, src) // project then resize (implementation order)
		b := represent(tr, represent(xform.Transform{Size: tr.Size, Color: img.RGB}, src))
		for i := range a.Pix {
			d := a.Pix[i] - b.Pix[i]
			if d > 1e-4 || d < -1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDerivationWithinOneOfFloat: what training reads is within 1 LSB of
// what serving reads. For every record of a table — five colours × down-,
// same- and up-scale targets × RGB and single-plane records × square and
// non-square sources, one named subtest each — every byte the engine derives
// (xform.Transform.AppendRecord) is within 1 of the stored form of the
// float32 representation training reads of the decoded record. Close, not
// identical: the two round differently, and the float path's luma weights
// are not the 16-bit ones.
func TestDerivationWithinOneOfFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, geom := range [][2]int{{32, 32}, {40, 24}} {
		for _, stored := range []img.ColorMode{img.RGB, img.Gray} {
			raw, err := img.AppendRecord(nil, randImage(rng, geom[0], geom[1], stored))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := img.ParseRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, color := range xform.AllColors {
				for _, size := range []int{2, 8, 16, 31, 32, 48} {
					tr := xform.Transform{Size: size, Color: color}
					t.Run(fmt.Sprintf("%dx%d/%v/%s", geom[0], geom[1], stored, tr.ID()), func(t *testing.T) {
						want, err := img.AppendRecord(nil, represent(tr, rec.Image()))
						if err != nil {
							t.Fatal(err)
						}
						got := tr.AppendRecord(nil, rec)
						if len(got) != len(want) {
							t.Fatalf("%d bytes, the float path %d", len(got), len(want))
						}
						for i := range got {
							if d := int(got[i]) - int(want[i]); d < -1 || d > 1 {
								t.Fatalf("byte %d is %d, the float path's %d", i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

func BenchmarkTransformResizeGray(b *testing.B) {
	src := randImage(rand.New(rand.NewSource(3)), 64, 64, img.RGB)
	tr := xform.Transform{Size: 16, Color: img.Gray}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = represent(tr, src)
	}
}
