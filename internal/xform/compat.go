package xform

import "tahoma/internal/img"

// The float32 transform over images is gone from this package: the engine
// derives every representation from records (ApplyRecord), and training holds
// its own float32 transform. What remains keeps the frozen benchmark harness
// (bench/trace.go) compiling.

// ApplyInto derives t's representation of src the way the engine derives an
// unserved slot: src encoded to its TIMG record, then ApplyRecord of that
// record into dst (reused when it fits). proj is returned untouched. It
// panics if src is too large for a record.
//
// Deprecated: a shim over ApplyRecord; delete it when a harness PR drops the
// call.
func (t Transform) ApplyInto(dst, src, proj *img.Image) (rep, projOut *img.Image) {
	raw, err := img.AppendRecord(nil, src)
	if err != nil {
		panic(err)
	}
	rec, err := img.ParseRecord(raw)
	if err != nil {
		panic(err)
	}
	rep, _ = t.ApplyRecord(dst, nil, rec)
	return rep, proj
}
