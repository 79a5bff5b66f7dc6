package streaming

import (
	"math"
	"math/rand"
	"testing"
)

// paramsFor returns valid parameters for f: small histogram and array
// shapes so the widths stay readable, a decay rate for the damped set.
func paramsFor(f Func) Params {
	switch f {
	case FHist, FPDF, FCDF:
		return Params{BinWidth: 50, Bins: 7}
	case FPercent:
		return Params{BinWidth: 50, Bins: 7, Quantile: 0.9}
	case FArray:
		return Params{MaxLen: 5}
	}
	return Params{Lambda: 2}
}

// observe feeds one sample the way the NIC runtime does: timestamped
// when the reducer takes timestamps.
func observe(r Reducer, x, ts int64) {
	if tr, ok := r.(TimedReducer); ok {
		tr.ObserveAt(x, ts)
	} else {
		r.Observe(x)
	}
}

// TestAppendFeaturesContract checks, for every reducing function and
// both the streaming and the naïve reducer, that AppendFeatures
// appends exactly FeatureWidth values and leaves dst[:len(dst)]
// untouched, whether or not dst has spare capacity.
func TestAppendFeaturesContract(t *testing.T) {
	prefix := []float64{-1.5, math.Inf(1), 42}
	for f := Func(0); f < Func(NumFuncsTotal); f++ {
		p := paramsFor(f)
		s, err := New(f, p)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for name, r := range map[string]Reducer{"streaming": s, "naive": NewNaive(f, p)} {
			want := FeatureWidth(f, p)
			for n := 0; n <= 8; n += 4 { // empty, within and past the f_array cap
				for spare := 0; spare <= want+1; spare += want + 1 {
					dst := make([]float64, len(prefix), len(prefix)+spare)
					copy(dst, prefix)
					out := r.AppendFeatures(dst)
					if got := len(out) - len(prefix); got != want {
						t.Errorf("%s %s after %d samples: appended %d values, FeatureWidth %d", name, f, n, got, want)
					}
					for i, v := range prefix {
						if math.Float64bits(dst[i]) != math.Float64bits(v) || math.Float64bits(out[i]) != math.Float64bits(v) {
							t.Errorf("%s %s: dst[%d] = %g, out[%d] = %g, want %g", name, f, i, dst[i], i, out[i], v)
						}
					}
				}
				for i := 0; i < 4; i++ {
					observe(r, int64(i*37-60), int64(n+i)*1e6)
				}
			}
		}
	}
}

// TestSharedWindowMatchesSeparateReducers is the bit-identity
// property behind the FE-NIC's shared damped windows: one window
// emitting a list of statistics produces exactly the bits of one
// separate reducer per statistic fed the same stream. Streams carry
// negative samples and equal and backwards timestamps.
func TestSharedWindowMatchesSeparateReducers(t *testing.T) {
	families := [][]Func{
		{FDWeight, FDMean, FDStd},
		{FD2DMag, FD2DRadius, FD2DCov, FD2DPCC},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		fam := families[trial%2]
		fs := make([]Func, 1+rng.Intn(5)) // duplicates allowed
		for i := range fs {
			fs[i] = fam[rng.Intn(len(fam))]
		}
		p := Params{Lambda: []float64{5, 1, 0.01}[rng.Intn(3)]}
		shared, err := NewShared(fs, p)
		if err != nil {
			t.Fatal(err)
		}
		sep := make([]Reducer, len(fs))
		sepBytes := 0
		for i, f := range fs {
			if i > 0 && !SharesWindow(fs[0], p, f, p) {
				t.Fatalf("%s and %s at λ=%g should share a window", fs[0], f, p.Lambda)
			}
			if sep[i], err = New(f, p); err != nil {
				t.Fatal(err)
			}
			sepBytes += sep[i].StateBytes()
		}
		all := append(sep[:len(sep):len(sep)], shared)
		ts := int64(rng.Intn(1e9))
		var want, got []float64
		for n := 0; n < 60; n++ {
			switch rng.Intn(4) {
			case 0: // equal timestamp
			case 1:
				ts -= int64(rng.Intn(5e8)) // backwards
			default:
				ts += int64(rng.Intn(5e8))
			}
			x := int64(rng.Intn(3001) - 1500)
			untimed := rng.Intn(10) == 0 // the frozen-clock Observe path
			for _, r := range all {
				if untimed {
					r.Observe(x)
				} else {
					r.(TimedReducer).ObserveAt(x, ts)
				}
			}
			want = want[:0]
			for _, r := range sep {
				want = r.AppendFeatures(want)
			}
			got = shared.AppendFeatures(got[:0])
			if len(got) != len(want) {
				t.Fatalf("%v: shared window emitted %d values, separate reducers %d", fs, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v λ=%g sample %d: %s = %v shared, %v separate", fs, p.Lambda, n, fs[i], got[i], want[i])
				}
			}
		}
		if sb := shared.StateBytes(); sb != sepBytes {
			t.Errorf("%v: shared StateBytes %d, separate sum %d", fs, sb, sepBytes)
		}
	}
}

func TestSharesWindow(t *testing.T) {
	l1, l2 := Params{Lambda: 1}, Params{Lambda: 0.1}
	for _, c := range []struct {
		a, b   Func
		pa, pb Params
		want   bool
	}{
		{FDWeight, FDStd, l1, l1, true},
		{FD2DMag, FD2DPCC, l1, l1, true},
		{FDMean, FDMean, l2, l2, true},
		{FDWeight, FDMean, l1, l2, false},         // different decay rates
		{FDMean, FD2DMag, l1, l1, false},          // 1D and 2D windows differ
		{FMean, FMean, Params{}, Params{}, false}, // not damped
		{FDMean, FMean, l1, l1, false},
	} {
		if got := SharesWindow(c.a, c.pa, c.b, c.pb); got != c.want {
			t.Errorf("SharesWindow(%s λ=%g, %s λ=%g) = %v, want %v", c.a, c.pa.Lambda, c.b, c.pb.Lambda, got, c.want)
		}
	}
	if _, err := NewShared([]Func{FDMean, FD2DMag}, l1); err == nil {
		t.Error("NewShared accepted a 1D and a 2D statistic in one window")
	}
	if _, err := NewShared([]Func{FDMean}, Params{}); err == nil {
		t.Error("NewShared accepted a zero decay rate")
	}
}
