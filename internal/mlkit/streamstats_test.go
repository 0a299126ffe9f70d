package mlkit

import (
	"math"
	"testing"
)

func TestP2QuantileTracksExact(t *testing.T) {
	rng := NewRNG(42)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		est := NewP2Quantile(q)
		xs := make([]float64, 0, 5000)
		for i := 0; i < 5000; i++ {
			x := rng.NormFloat64()*3 + 10
			est.Add(x)
			xs = append(xs, x)
		}
		exact := Quantile(xs, q)
		got := est.Value()
		if math.Abs(got-exact) > 0.25 {
			t.Errorf("q=%v: P2 estimate %v vs exact %v", q, got, exact)
		}
		if est.cnt != 5000 {
			t.Errorf("count = %d, want 5000", est.cnt)
		}
	}
}

func TestP2QuantileSmallN(t *testing.T) {
	est := NewP2Quantile(0.5)
	for _, x := range []float64{3, 1, 2} {
		est.Add(x)
	}
	if got := est.Value(); got != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", got)
	}
	if est := NewP2Quantile(0.9); est.Value() != 0 {
		t.Errorf("empty estimator should return 0")
	}
}

func TestPageHinkleyDetectsShift(t *testing.T) {
	ph := &PageHinkley{Delta: 0.05, Lambda: 10, MinSamples: 30}
	rng := NewRNG(7)
	for i := 0; i < 500; i++ {
		if ph.Add(rng.Float64() * 0.1) {
			t.Fatalf("false positive on flat stream at i=%d", i)
		}
	}
	fired := false
	for i := 0; i < 500; i++ {
		if ph.Add(1 + rng.Float64()*0.1) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no detection after mean shift 0.05 -> 1")
	}
	// Reset-on-detect re-arms the detector.
	if ph.n != 0 {
		t.Errorf("count after detection = %d, want 0", ph.n)
	}
}
