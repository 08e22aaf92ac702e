//go:build !amd64

package tensor

func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	axpy4Generic(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy(c, b []float32, a float32) { axpyGeneric(c, b, a) }
