package scenario

import (
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/xform"
)

func testModel(t *testing.T, size int, color img.ColorMode) *model.Model {
	t.Helper()
	m, err := model.New(
		arch.Spec{ConvLayers: 1, ConvWidth: 2, DenseWidth: 2, Kernel: 3},
		xform.Transform{Size: size, Color: color},
		model.Basic, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKindNames(t *testing.T) {
	names := map[Kind]string{
		InferOnly: "INFER_ONLY",
		Archive:   "ARCHIVE",
		Ongoing:   "ONGOING",
		Camera:    "CAMERA",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
	if len(AllKinds) != 4 {
		t.Fatal("AllKinds must list all four scenarios")
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.DiskBytesPerSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth must fail")
	}
	bad = DefaultParams()
	bad.SourceW = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero geometry must fail")
	}
	bad = DefaultParams()
	bad.InferSecPerMAC = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative constant must fail")
	}
	if _, err := NewAnalytic(Camera, bad); err == nil {
		t.Fatal("NewAnalytic must reject invalid params")
	}
}

func TestAnalyticScenarioStructure(t *testing.T) {
	p := DefaultParams()
	small := testModel(t, 8, img.Gray)
	big := testModel(t, 64, img.RGB)

	inferOnly, _ := NewAnalytic(InferOnly, p)
	archive, _ := NewAnalytic(Archive, p)
	ongoing, _ := NewAnalytic(Ongoing, p)
	camera, _ := NewAnalytic(Camera, p)

	// INFER_ONLY prices no data handling at all.
	if inferOnly.SourceCost() != 0 || inferOnly.RepCost(small.Xform) != 0 {
		t.Fatal("INFER_ONLY must have zero data-handling costs")
	}
	// Only ARCHIVE pays the full-size source load.
	if archive.SourceCost() <= 0 {
		t.Fatal("ARCHIVE must pay a source load")
	}
	for _, cm := range []CostModel{ongoing, camera} {
		if cm.SourceCost() != 0 {
			t.Fatalf("%s must not pay a source load", cm.Name())
		}
	}
	// Every scenario pays inference, more for the bigger model.
	for _, cm := range []CostModel{inferOnly, archive, ongoing, camera} {
		if cm.InferCost(small) <= 0 {
			t.Fatalf("%s: inference must cost", cm.Name())
		}
		if cm.InferCost(big) <= cm.InferCost(small) {
			t.Fatalf("%s: bigger model must cost more", cm.Name())
		}
	}
	// Rep costs: ONGOING loads stored bytes; ARCHIVE/CAMERA transform.
	if ongoing.RepCost(small.Xform) <= 0 || camera.RepCost(small.Xform) <= 0 {
		t.Fatal("rep costs must be positive outside INFER_ONLY")
	}
	// Bigger representations cost more in every paying scenario.
	for _, cm := range []CostModel{archive, ongoing, camera} {
		if cm.RepCost(big.Xform) <= cm.RepCost(small.Xform) {
			t.Fatalf("%s: bigger representation must cost more", cm.Name())
		}
	}
	// ARCHIVE and CAMERA share transform pricing (they differ in source).
	if archive.RepCost(small.Xform) != camera.RepCost(small.Xform) {
		t.Fatal("ARCHIVE and CAMERA transform costs should match")
	}
	if archive.Kind() != Archive || inferOnly.Kind() != InferOnly {
		t.Fatal("Kind accessor wrong")
	}
}

func TestOngoingCheaperThanArchiveForSmallReps(t *testing.T) {
	// The point of ONGOING: loading an 8x8 gray rep is far cheaper than
	// loading a 64x64 RGB source and transforming it.
	p := DefaultParams()
	archive, _ := NewAnalytic(Archive, p)
	ongoing, _ := NewAnalytic(Ongoing, p)
	tr := xform.Transform{Size: 8, Color: img.Gray}
	archiveTotal := archive.SourceCost() + archive.RepCost(tr)
	ongoingTotal := ongoing.SourceCost() + ongoing.RepCost(tr)
	if ongoingTotal >= archiveTotal {
		t.Fatalf("ONGOING (%v) should beat ARCHIVE (%v) for small reps", ongoingTotal, archiveTotal)
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"camera": Camera, "CAMERA": Camera, "archive": Archive,
		"ongoing": Ongoing, "infer": InferOnly, "INFER_ONLY": InferOnly,
		"inferonly": InferOnly,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("cloud"); err == nil {
		t.Fatal("unknown scenario must error")
	}
}
