package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile of xs and the
// number of samples strictly above it (NaN, 0 when empty).
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	v := s[rank-1]
	beyond := 0
	for _, x := range s[rank:] {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapInuse collects garbage and reads HeapInuse, so the figure is
// what the live deployment retains rather than where the collector
// happened to be in its cycle.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nsPer is d in nanoseconds per unit of work.
func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
