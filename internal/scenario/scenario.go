// Package scenario models deployment-scenario data-handling costs
// (Sections III and VI). A classification's end-to-end cost is
//
//	t_classify = t_load + t_transform + t_infer
//
// and which of those terms apply — and to what — depends on where the system
// runs: querying an archival corpus loads full images off disk and resizes
// them (ARCHIVE); a datacenter ingest pipeline materializes representations
// ahead of time so queries only load the small representation (ONGOING); an
// edge node gets frames for free from the camera but still pays to transform
// them (CAMERA); and the cost model used implicitly by most computer-vision
// work counts inference alone (INFER_ONLY).
//
// A CostModel prices the three terms for a specific scenario. The one
// implementation, Analytic, prices from first principles (bytes, operation
// counts) and is fully deterministic.
package scenario

import (
	"fmt"
	"strings"

	"tahoma/internal/model"
	"tahoma/internal/xform"
)

// Kind identifies a deployment scenario.
type Kind int

// The four deployment scenarios of Section VII-A.
const (
	InferOnly Kind = iota
	Archive
	Ongoing
	Camera
)

// String returns the scenario's paper name.
func (k Kind) String() string {
	switch k {
	case InferOnly:
		return "INFER_ONLY"
	case Archive:
		return "ARCHIVE"
	case Ongoing:
		return "ONGOING"
	case Camera:
		return "CAMERA"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the four scenarios in presentation order.
var AllKinds = []Kind{InferOnly, Ongoing, Camera, Archive}

// ParseKind parses a scenario name as used on command lines; it accepts the
// paper's names case-insensitively plus the aliases "infer" and "inferonly".
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "infer", "infer_only", "inferonly":
		return InferOnly, nil
	case "archive":
		return Archive, nil
	case "ongoing":
		return Ongoing, nil
	case "camera":
		return Camera, nil
	default:
		return 0, fmt.Errorf("scenario: unknown scenario %q (infer_only, archive, ongoing, camera)", s)
	}
}

// CostModel prices the components of t_classify, in seconds.
type CostModel interface {
	// Name identifies the model (scenario + pricing source).
	Name() string
	// Kind returns the scenario being priced.
	Kind() Kind
	// SourceCost is paid once per image before anything else happens —
	// loading and decoding the full-size source (ARCHIVE), or zero where
	// the source is already in memory or never touched.
	SourceCost() float64
	// RepCost is paid once per (image, representation): materializing the
	// representation by transformation (ARCHIVE/CAMERA) or loading the
	// pre-transformed representation from storage (ONGOING).
	RepCost(t xform.Transform) float64
	// InferCost is paid for every inference of the given model.
	InferCost(m *model.Model) float64
}

// Params are the constants of the analytic cost model. The defaults are
// calibrated to the rough magnitudes of a commodity server so that relative
// scenario behavior matches the paper; absolute values are configurable.
type Params struct {
	// DiskBytesPerSec is sequential read bandwidth of the backing store.
	DiskBytesPerSec float64
	// DecodeSecPerByte prices turning stored bytes into pixels.
	DecodeSecPerByte float64
	// TransformSecPerOp prices one resample/projection operation
	// (xform.Transform.TransformWork units).
	TransformSecPerOp float64
	// InferSecPerMAC prices one multiply-accumulate of CNN inference.
	InferSecPerMAC float64
	// InferOverheadSec is the fixed per-inference overhead (dispatch,
	// buffer setup) that keeps tiny models from being priced at ~zero.
	InferOverheadSec float64
	// SourceW, SourceH describe the full-size corpus images, for pricing
	// ARCHIVE loads and transform work.
	SourceW, SourceH int
}

// DefaultParams returns constants resembling the paper's regime: an
// accelerator makes inference fast (sub-ns/MAC with a small dispatch
// overhead) while loading and transformation run on the host CPU and disk
// (200 MB/s reads, ~4 ns/byte decode, ~5 ns/op transforms). In this regime
// data handling is comparable to small-model inference, which is exactly
// what makes scenario-aware cascade choice matter (Sections VI, VII-D).
func DefaultParams() Params {
	return Params{
		DiskBytesPerSec:   200e6,
		DecodeSecPerByte:  4e-9,
		TransformSecPerOp: 5e-9,
		InferSecPerMAC:    0.5e-9,
		InferOverheadSec:  3e-6,
		SourceW:           64,
		SourceH:           64,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.DiskBytesPerSec <= 0 {
		return fmt.Errorf("scenario: DiskBytesPerSec must be positive, got %v", p.DiskBytesPerSec)
	}
	if p.SourceW <= 0 || p.SourceH <= 0 {
		return fmt.Errorf("scenario: source geometry %dx%d invalid", p.SourceW, p.SourceH)
	}
	if p.InferSecPerMAC < 0 || p.TransformSecPerOp < 0 || p.DecodeSecPerByte < 0 || p.InferOverheadSec < 0 {
		return fmt.Errorf("scenario: negative cost constant")
	}
	return nil
}

// Analytic is a deterministic CostModel computed from Params.
type Analytic struct {
	kind   Kind
	params Params
}

// NewAnalytic builds an analytic cost model for the scenario.
func NewAnalytic(kind Kind, p Params) (*Analytic, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Analytic{kind: kind, params: p}, nil
}

// Name implements CostModel.
func (a *Analytic) Name() string { return a.kind.String() + "/analytic" }

// Kind implements CostModel.
func (a *Analytic) Kind() Kind { return a.kind }

// loadSeconds prices reading and decoding n stored bytes. Here and in
// InferCost each product is rounded before it is added (an explicit
// conversion, which no GOARCH may fuse), so arm64 prices like amd64.
func (a *Analytic) loadSeconds(n int) float64 {
	return float64(n)/a.params.DiskBytesPerSec + float64(float64(n)*a.params.DecodeSecPerByte)
}

// SourceCost implements CostModel.
func (a *Analytic) SourceCost() float64 {
	if a.kind != Archive {
		return 0
	}
	// Full-size RGB source in TIMG storage.
	n := 10 + 3*a.params.SourceW*a.params.SourceH
	return a.loadSeconds(n)
}

// RepCost implements CostModel.
func (a *Analytic) RepCost(t xform.Transform) float64 {
	switch a.kind {
	case InferOnly:
		return 0
	case Archive, Camera:
		return float64(t.TransformWork(a.params.SourceW, a.params.SourceH)) * a.params.TransformSecPerOp
	case Ongoing:
		return a.loadSeconds(t.StoredBytes())
	default:
		return 0
	}
}

// InferCost implements CostModel.
func (a *Analytic) InferCost(m *model.Model) float64 {
	return float64(float64(m.MACs())*a.params.InferSecPerMAC) + a.params.InferOverheadSec
}
