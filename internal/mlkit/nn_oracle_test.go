package mlkit

import (
	"math"
	"testing"
)

// refApply is the scalar activation, the oracle for applyVec.
func refApply(a Activation, x float64) float64 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActTanh:
		return math.Tanh(x)
	default:
		return 1 / (1 + math.Exp(-x))
	}
}

// refDeriv is the scalar activation derivative expressed through the
// activation output y, the oracle for scaleByDeriv.
func refDeriv(a Activation, y float64) float64 {
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActTanh:
		return 1 - y*y
	default:
		return y * (1 - y)
	}
}

// TestActivationDerivatives pins the vector activation and derivative
// kernels to their scalar oracles, bit for bit, and the oracles to the
// closed forms.
func TestActivationDerivatives(t *testing.T) {
	// deriv is expressed in terms of the activation output.
	if d := refDeriv(ActReLU, 2); d != 1 {
		t.Errorf("relu'(pos) = %v", d)
	}
	if d := refDeriv(ActReLU, 0); d != 0 {
		t.Errorf("relu'(0) = %v", d)
	}
	y := refApply(ActSigmoid, 0.3)
	if d := refDeriv(ActSigmoid, y); math.Abs(d-y*(1-y)) > 1e-12 {
		t.Errorf("sigmoid' = %v", d)
	}
	yt := refApply(ActTanh, 0.3)
	if d := refDeriv(ActTanh, yt); math.Abs(d-(1-yt*yt)) > 1e-12 {
		t.Errorf("tanh' = %v", d)
	}
	xs := []float64{-40, -3, -0.5, math.Copysign(0, -1), 0, 1e-300, 0.3, 2, 40}
	for _, a := range []Activation{ActSigmoid, ActReLU, ActTanh} {
		ys := append([]float64(nil), xs...)
		a.applyVec(ys)
		grad := make([]float64, len(ys))
		for i := range grad {
			grad[i] = 1.5
		}
		a.scaleByDeriv(ys, grad)
		for i, x := range xs {
			if want := refApply(a, x); math.Float64bits(ys[i]) != math.Float64bits(want) {
				t.Errorf("activation %d: applyVec(%v) = %v, scalar %v", a, x, ys[i], want)
			}
			if want := 1.5 * refDeriv(a, ys[i]); math.Float64bits(grad[i]) != math.Float64bits(want) {
				t.Errorf("activation %d: scaleByDeriv at y=%v = %v, scalar %v", a, ys[i], grad[i], want)
			}
		}
	}
}
