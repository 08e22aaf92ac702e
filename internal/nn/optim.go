package nn

import (
	"math"

	"tahoma/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam creates an Adam optimizer with standard defaults for the moment
// decay rates (0.9, 0.999) and epsilon 1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		m:       make(map[*Param]*tensor.Tensor),
		v:       make(map[*Param]*tensor.Tensor),
	}
}

// Step applies one update from the gradients currently stored in params
// and leaves the gradients untouched (callers zero them).
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape...)
		}
		v := a.v[p]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		md, vd, gd, wd := m.Data, v.Data, p.Grad.Data, p.Value.Data
		for i := range md {
			g := gd[i]
			md[i] = float32(b1*md[i]) + float32((1-b1)*g)
			vd[i] = float32(b2*vd[i]) + float32((1-b2)*g*g)
			mhat := float64(md[i]) / c1
			vhat := float64(vd[i]) / c2
			wd[i] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon))
		}
	}
}
