package img

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randImage(rng *rand.Rand, w, h int, mode ColorMode) *Image {
	im := New(w, h, mode)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

func TestColorModes(t *testing.T) {
	if RGB.Channels() != 3 || Gray.Channels() != 1 || Red.Channels() != 1 {
		t.Fatal("channel counts wrong")
	}
	names := []string{"rgb", "r", "g", "b", "gray"}
	for i, m := range []ColorMode{RGB, Red, Green, Blue, Gray} {
		if m.String() != names[i] {
			t.Fatalf("mode %d name %q, want %q", i, m.String(), names[i])
		}
	}
}

func TestAtSetPlane(t *testing.T) {
	im := New(4, 3, RGB)
	im.Set(2, 1, 2, 0.5)
	if im.At(2, 1, 2) != 0.5 {
		t.Fatal("At/Set mismatch")
	}
	if len(im.Plane(2)) != 12 {
		t.Fatal("plane size wrong")
	}
	if im.Plane(2)[2*4+1] != 0.5 {
		t.Fatal("plane indexing wrong")
	}
	if im.Bytes() != 3*4*3*4 {
		t.Fatalf("Bytes = %d", im.Bytes())
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randImage(rng, 3, 3, RGB)
	b := a.Clone()
	b.Pix[0] = -1
	if a.Pix[0] == -1 {
		t.Fatal("Clone shares pixels")
	}
}

func TestClamp(t *testing.T) {
	im := New(2, 1, Gray)
	im.Pix[0] = -0.5
	im.Pix[1] = 1.5
	im.Clamp()
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatalf("Clamp: %v", im.Pix)
	}
}

// TestFlipHInvolution: flipping twice is the identity (property-based).
func TestFlipHInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randImage(rng, 1+rng.Intn(12), 1+rng.Intn(12), RGB)
		twice := FlipH(FlipH(src))
		for i := range src.Pix {
			if twice.Pix[i] != src.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipHActuallyFlips(t *testing.T) {
	src := New(3, 1, Gray)
	src.Pix[0], src.Pix[1], src.Pix[2] = 1, 2, 3
	out := FlipH(src)
	if out.Pix[0] != 3 || out.Pix[1] != 2 || out.Pix[2] != 1 {
		t.Fatalf("flip: %v", out.Pix)
	}
}

// TestCodecRoundTrip: encode/decode loses at most one quantization step.
func TestCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		modes := []ColorMode{RGB, Red, Gray}
		src := randImage(rng, 1+rng.Intn(16), 1+rng.Intn(16), modes[rng.Intn(len(modes))])
		var buf bytes.Buffer
		if err := Encode(&buf, src); err != nil {
			return false
		}
		if buf.Len() != EncodedSize(src.W, src.H, src.Mode) {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if got.W != src.W || got.H != src.H || got.Mode != src.Mode {
			return false
		}
		for i := range src.Pix {
			d := got.Pix[i] - src.Pix[i]
			if d < 0 {
				d = -d
			}
			if d > 1.0/255+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTripExactOnQuantizedValues(t *testing.T) {
	src := New(3, 2, Gray)
	for i := range src.Pix {
		src.Pix[i] = float32(i*40) / 255
	}
	var buf bytes.Buffer
	if err := Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Pix {
		if got.Pix[i] != src.Pix[i] {
			t.Fatalf("quantized value changed at %d: %v vs %v", i, got.Pix[i], src.Pix[i])
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	src := New(4, 4, RGB)
	var buf bytes.Buffer
	if err := Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"short":       full[:5],
		"bad magic":   append([]byte("XIMG"), full[4:]...),
		"bad version": append(append([]byte{}, full[:4]...), append([]byte{9}, full[5:]...)...),
		"bad mode":    append(append([]byte{}, full[:5]...), append([]byte{99}, full[6:]...)...),
		"truncated":   full[:len(full)-7],
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode accepted corrupt data", name)
		} else if !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

func TestWritePNM(t *testing.T) {
	var buf bytes.Buffer
	rgb := New(2, 2, RGB)
	if err := WritePNM(&buf, rgb); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n2 2\n255\n")) {
		t.Fatalf("PPM header wrong: %q", buf.Bytes()[:12])
	}
	buf.Reset()
	gray := New(2, 2, Gray)
	if err := WritePNM(&buf, gray); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P5\n")) {
		t.Fatal("PGM header wrong")
	}
}

func TestStoredBytes(t *testing.T) {
	im := New(8, 8, RGB)
	if im.StoredBytes() != 10+192 {
		t.Fatalf("StoredBytes = %d", im.StoredBytes())
	}
}
