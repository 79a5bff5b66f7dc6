package nicsim

import (
	"math"

	"superfe/internal/policy"
)

// appendSynth post-processes a reduce's feature values with a
// synthesizing function (Appendix A Table 5: f_marker, f_norm,
// ft_sample) and appends the result to dst. vals must not alias the
// region dst grows into.
func appendSynth(dst []float64, op policy.Op, vals []float64) []float64 {
	switch op.SynthF {
	case policy.SynthNorm:
		return synthNorm(dst, vals)
	case policy.SynthSample:
		return synthSample(dst, vals, op.SampleN)
	case policy.SynthMarker:
		return synthMarker(dst, vals)
	}
	return append(dst, vals...)
}

// synthNorm normalises the sequence to unit maximum magnitude
// (preserving sign — direction sequences stay in [-1, 1], the input
// representation the deep WFP models expect).
func synthNorm(dst, vals []float64) []float64 {
	var maxAbs float64
	for _, v := range vals {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return append(dst, vals...)
	}
	for _, v := range vals {
		dst = append(dst, v/maxAbs)
	}
	return dst
}

// synthSample resamples the sequence to exactly n points by uniform
// index striding (ft_sample{n}), the fixed-length reduction CUMUL
// applies to its cumulative trace.
func synthSample(dst, vals []float64, n int) []float64 {
	if n <= 0 {
		return dst
	}
	switch {
	case len(vals) == 0:
		for i := 0; i < n; i++ {
			dst = append(dst, 0)
		}
		return dst
	case len(vals) == 1:
		for i := 0; i < n; i++ {
			dst = append(dst, vals[0])
		}
		return dst
	case n == 1:
		return append(dst, vals[len(vals)-1])
	}
	for i := 0; i < n; i++ {
		// Linear interpolation across the sequence.
		pos := float64(i) * float64(len(vals)-1) / float64(n-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(vals) {
			dst = append(dst, vals[len(vals)-1])
			continue
		}
		frac := pos - float64(lo)
		dst = append(dst, vals[lo]*(1-frac)+vals[hi]*frac)
	}
	return dst
}

// synthMarker inserts direction-change markers: at every sign change
// in the sequence it records the accumulated magnitude sent in the
// previous direction (f_marker: "add a structure at each direction
// change to reflect the bytes/packet numbers previously sent"). The
// output is the sequence of per-direction run totals, signed by run
// direction, padded to the input length (there are never more runs
// than inputs).
func synthMarker(dst, vals []float64) []float64 {
	end := len(dst) + len(vals)
	var run float64
	var sign float64
	for _, v := range vals {
		s := math.Copysign(1, v)
		if v == 0 {
			continue
		}
		if sign == 0 {
			sign = s
		}
		if s != sign {
			dst = append(dst, sign*run)
			run, sign = 0, s
		}
		run += math.Abs(v)
	}
	if run > 0 && sign != 0 {
		dst = append(dst, sign*run)
	}
	// Fixed-length view: pad with zeros so downstream dimensions stay
	// stable.
	for len(dst) < end {
		dst = append(dst, 0)
	}
	return dst
}
