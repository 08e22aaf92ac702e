package xform

import (
	"math"
	"math/rand"
	"testing"

	"tahoma/internal/img"
)

// TestApplyIntoIsApplyRecord: the shim over a decoded record is ApplyRecord
// of that record, bit for bit, reusing a matching destination and replacing
// a mismatched one.
func TestApplyIntoIsApplyRecord(t *testing.T) {
	rec, err := img.ParseRecord(randRecord(t, rand.New(rand.NewSource(5)), 24, 24, img.RGB))
	if err != nil {
		t.Fatal(err)
	}
	src := rec.Image()
	for _, tr := range []Transform{{Size: 8, Color: img.Gray}, {Size: 16, Color: img.RGB}, {Size: 12, Color: img.Red}, {Size: 24, Color: img.Blue}} {
		want, _ := tr.ApplyRecord(nil, nil, rec)
		var dst *img.Image
		for round := range 2 {
			got, proj := tr.ApplyInto(dst, src, nil)
			if proj != nil {
				t.Fatalf("%s: the projection scratch came back %p", tr.ID(), proj)
			}
			if got.W != want.W || got.H != want.H || got.Mode != want.Mode {
				t.Fatalf("%s: geometry %dx%d/%v, ApplyRecord %dx%d/%v", tr.ID(), got.W, got.H, got.Mode, want.W, want.H, want.Mode)
			}
			for i := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
					t.Fatalf("%s round %d: sample %d = %v, ApplyRecord %v", tr.ID(), round, i, got.Pix[i], want.Pix[i])
				}
			}
			if round > 0 && got != dst {
				t.Fatalf("%s: matching destination was not reused", tr.ID())
			}
			dst = got
		}
		wrong := img.New(3, 3, img.Gray)
		if got, _ := tr.ApplyInto(wrong, src, nil); got == wrong {
			t.Fatalf("%s: mismatched destination was written through", tr.ID())
		}
	}
}
