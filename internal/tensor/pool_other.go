//go:build !amd64

package tensor

func poolRow(out, r0, r1 []float32, bias float32) { poolRowGeneric(out, r0, r1, bias) }
