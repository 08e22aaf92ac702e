package model

import (
	"math/rand"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

var testSpec = arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3}

func TestNewAndID(t *testing.T) {
	m, err := New(testSpec, xform.Transform{Size: 16, Color: img.Gray}, Basic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != "c1w4d8k3@16x16/gray" {
		t.Fatalf("ID = %s", m.ID())
	}
	if m.Kind.String() != "basic" {
		t.Fatal("kind string wrong")
	}
	if m.MACs() <= 0 {
		t.Fatal("MACs must be positive")
	}
}

func TestNewSeedMixing(t *testing.T) {
	a, _ := New(testSpec, xform.Transform{Size: 8, Color: img.Gray}, Basic, 7)
	b, _ := New(testSpec, xform.Transform{Size: 8, Color: img.Red}, Basic, 7)
	// Same base seed, different transforms → different initial weights.
	wa, wb := a.Net.Weights(), b.Net.Weights()
	same := true
	for i := range wa {
		if wa[i] != wb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different grid cells should start from different weights")
	}
	// Identical identity → identical weights.
	c, _ := New(testSpec, xform.Transform{Size: 8, Color: img.Gray}, Basic, 7)
	wc := c.Net.Weights()
	for i := range wa {
		if wa[i] != wc[i] {
			t.Fatal("same identity should reproduce weights")
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(testSpec, xform.Transform{Size: 1, Color: img.Gray}, Basic, 1); err == nil {
		t.Fatal("invalid transform must error")
	}
	deep := arch.Spec{ConvLayers: 4, ConvWidth: 4, DenseWidth: 8, Kernel: 3}
	if _, err := New(deep, xform.Transform{Size: 8, Color: img.Gray}, Basic, 1); err == nil {
		t.Fatal("architecture too deep for the input must error")
	}
}

func TestScoreValidatesGeometry(t *testing.T) {
	m, _ := New(testSpec, xform.Transform{Size: 16, Color: img.Gray}, Basic, 1)
	if _, err := m.Score(img.New(8, 8, img.Gray)); err == nil {
		t.Fatal("wrong-size representation must error")
	}
	if _, err := m.Score(img.New(16, 16, img.RGB)); err == nil {
		t.Fatal("wrong-channel representation must error")
	}
	if _, err := m.Score(img.New(16, 16, img.Gray)); err != nil {
		t.Fatal(err)
	}
}

// TestScoreMatchesManualPipeline: a frame's record derived to the model's
// representation (the engine's ApplyRecord) and scored gives the network's
// own prediction on that input.
func TestScoreMatchesManualPipeline(t *testing.T) {
	m, _ := New(testSpec, xform.Transform{Size: 8, Color: img.Blue}, Basic, 5)
	rng := rand.New(rand.NewSource(6))
	src := img.New(32, 32, img.RGB)
	for i := range src.Pix {
		src.Pix[i] = rng.Float32()
	}
	raw, err := img.AppendRecord(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := img.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := m.Xform.ApplyRecord(nil, nil, rec)
	want := m.Net.Predict(InputTensor(rep))
	got, err := m.Score(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Score %v != manual %v", got, want)
	}
	if want < 0 || want > 1 {
		t.Fatalf("score %v out of [0,1]", want)
	}
}

func TestInputTensorSharesPixels(t *testing.T) {
	rep := img.New(4, 4, img.Gray)
	rep.Pix[5] = 0.25
	x := InputTensor(rep)
	if x.Shape[0] != 1 || x.Shape[1] != 4 || x.Shape[2] != 4 {
		t.Fatalf("tensor shape %v", x.Shape)
	}
	if x.Data[5] != 0.25 {
		t.Fatal("tensor does not share pixel buffer")
	}
	x.Data[5] = 0.5
	if rep.Pix[5] != 0.5 {
		t.Fatal("mutation did not propagate (copy, not share)")
	}
}

func TestCloneConcurrentSafe(t *testing.T) {
	m, _ := New(testSpec, xform.Transform{Size: 8, Color: img.Gray}, Basic, 9)
	rng := rand.New(rand.NewSource(10))
	rep := img.New(8, 8, img.Gray)
	for i := range rep.Pix {
		rep.Pix[i] = rng.Float32()
	}
	want, _ := m.Score(rep)
	clone := m.Clone()
	if clone.ID() != m.ID() {
		t.Fatal("clone identity changed")
	}
	done := make(chan float32, 2)
	for i := 0; i < 2; i++ {
		mm := m.Clone()
		go func() {
			var last float32
			for j := 0; j < 50; j++ {
				last, _ = mm.Score(rep)
			}
			done <- last
		}()
	}
	for i := 0; i < 2; i++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent clone score %v != %v", got, want)
		}
	}
}
