//go:build !amd64

package tensor

func poolPlane(out, acc []float32, ow, pw, rows int, bias float32) {
	poolPlaneGeneric(out, acc, ow, pw, rows, bias)
}
