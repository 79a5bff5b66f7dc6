package nicsim

import (
	"math"
	"testing"
	"testing/quick"

	"superfe/internal/policy"
)

func TestSynthNorm(t *testing.T) {
	got := synthNorm(nil, []float64{2, -4, 1})
	want := []float64{0.5, -1, 0.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("norm = %v, want %v", got, want)
		}
	}
	// Zero vector is passed through unchanged.
	z := synthNorm(nil, []float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector mishandled")
	}
}

func TestSynthNormBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		out := synthNorm(nil, xs)
		for _, v := range out {
			if v < -1-1e-9 || v > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynthSample(t *testing.T) {
	// Downsampling a ramp keeps the endpoints.
	in := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	out := synthSample(nil, in, 4)
	if len(out) != 4 {
		t.Fatalf("length = %d", len(out))
	}
	if out[0] != 0 || out[3] != 90 {
		t.Errorf("endpoints: %v", out)
	}
	if out[1] <= out[0] || out[2] <= out[1] || out[3] <= out[2] {
		t.Errorf("ramp not monotone after sampling: %v", out)
	}
	// Upsampling interpolates.
	up := synthSample(nil, []float64{0, 10}, 5)
	if up[2] != 5 {
		t.Errorf("midpoint = %g, want 5", up[2])
	}
	// Degenerate inputs.
	if len(synthSample(nil, nil, 3)) != 3 {
		t.Error("empty input should zero-fill")
	}
	one := synthSample(nil, []float64{7}, 3)
	for _, v := range one {
		if v != 7 {
			t.Errorf("singleton broadcast: %v", one)
		}
	}
	if synthSample(nil, in, 0) != nil {
		t.Error("n=0 should be nil")
	}
}

func TestSynthMarker(t *testing.T) {
	// +3 packets of 100, then -2 of 500, then +1 of 60.
	in := []float64{100, 100, 100, -500, -500, 60}
	out := synthMarker(nil, in)
	if len(out) != len(in) {
		t.Fatalf("marker output length %d", len(out))
	}
	// Run totals: +300, -1000, +60, then zero padding.
	want := []float64{300, -1000, 60, 0, 0, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("markers = %v, want %v", out, want)
		}
	}
}

func TestSynthMarkerSkipsZeros(t *testing.T) {
	in := []float64{100, 0, 0, -50}
	out := synthMarker(nil, in)
	if out[0] != 100 || out[1] != -50 {
		t.Errorf("zeros should not break runs: %v", out)
	}
}

func TestApplySynthDispatch(t *testing.T) {
	vals := []float64{3, -6}
	if got := appendSynth(nil, policy.Op{SynthF: policy.SynthNorm}, vals); got[1] != -1 {
		t.Error("norm dispatch")
	}
	if got := appendSynth(nil, policy.Op{SynthF: policy.SynthSample, SampleN: 1}, vals); len(got) != 1 {
		t.Error("sample dispatch")
	}
	if got := appendSynth(nil, policy.Op{SynthF: policy.SynthMarker}, vals); len(got) != 2 {
		t.Error("marker dispatch")
	}
}
