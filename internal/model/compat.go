package model

import "tahoma/internal/img"

// The int8 scoring path is gone: it was slower end to end than float32 on
// both scans, and its guard band did not keep answers equal to float32. What
// remains keeps the frozen benchmark harness (bench/trace.go) compiling.

// Quantized always reports false: every model scores float32.
//
// Deprecated: a no-op; delete it when a harness PR drops the calls.
func (m *Model) Quantized() bool { return false }

// ScoreBatchQuantInto is ScoreBatchInto.
//
// Deprecated: an alias; delete it when a harness PR drops the calls.
func (m *Model) ScoreBatchQuantInto(reps []*img.Image, out []float32) error {
	return m.ScoreBatchInto(reps, out)
}
