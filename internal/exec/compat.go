package exec

// The int8 scoring path is gone: it was slower end to end than float32 on
// both scans, and its guard band did not keep answers equal to float32. What
// remains keeps the frozen benchmark harness (bench/run.go, bench/trace.go)
// compiling; every run scores float32 whatever Options.Quantize says.

// QuantMode was the scoring-representation selector of a run.
//
// Deprecated: inert; delete it when a harness PR drops the calls.
type QuantMode int

// The two former scoring modes. Both now mean float32.
//
// Deprecated: inert; delete them when a harness PR drops the calls.
const (
	QuantOff QuantMode = iota
	QuantAuto
)
