package main

import (
	"fmt"
	"io"
	"time"
)

// minReps is the least number of measured repetitions per run,
// whatever the time budget; setupSamples the least number of set-up
// timings.
const (
	minReps      = 3
	setupSamples = 51
)

// repeat runs one warm-up repetition (checked, not measured) and then
// measured repetitions until the budget is spent. Every repetition's
// operations count as attempted: its flush barriers (and, in service
// mode, its ingest frames) plus one output check. A failed operation
// or an output mismatch counts as failed and is printed.
func repeat(in *inputs, budget time.Duration, out io.Writer, once func() (*rep, error)) ([]*rep, int, int, error) {
	ops := in.flushes + 1
	if in.w.service {
		ops += (len(in.pkts) + frameSize - 1) / frameSize
	}
	var reps []*rep
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; i <= minReps || time.Since(start) < budget; i++ {
		if i == 1 {
			start = time.Now()
		}
		attempted += ops
		r, err := once()
		if err != nil {
			failed++
			fmt.Fprintf(out, "repetition %d failed: %v\n", i, err)
			if failed > minReps {
				return nil, attempted, failed, fmt.Errorf("%d repetitions failed, last: %w", failed, err)
			}
			continue
		}
		if r.got != in.ref {
			failed++
			fmt.Fprintf(out, "OUTPUT MISMATCH in repetition %d: got %s, sequential reference %s\n", i, r.got, in.ref)
		}
		if i > 0 {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		return nil, attempted, failed, fmt.Errorf("no repetition succeeded")
	}
	return reps, attempted, failed, nil
}

// endToEnd measures the end-to-end metrics with tracing off.
func endToEnd(in *inputs, budget time.Duration, out io.Writer) (result, error) {
	once := func() (*rep, error) {
		return oneShot(in, engineCfg{}, nil, "e2e")
	}
	deploy := func() (time.Duration, error) { return deployOnce(in) }
	var svc *service
	if in.w.service {
		var err error
		svc, err = startService()
		if err != nil {
			return result{}, err
		}
		defer svc.close()
		once = func() (*rep, error) { return svc.rep(in, nil, "e2e") }
		deploy = func() (time.Duration, error) { return svc.startOnce(in) }
	}
	reps, attempted, failed, err := repeat(in, budget, out, once)
	if err != nil {
		return result{}, err
	}
	if svc != nil {
		fmt.Fprintln(out, svc.registration())
	}
	var setup []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
	}
	// Set-up is short next to a repetition, so it is also sampled on
	// its own: deploy and tear down until there are setupSamples.
	for i := len(setup); i < setupSamples; i++ {
		attempted++
		d, err := deploy()
		if err != nil {
			failed++
			fmt.Fprintf(out, "set-up failed: %v\n", err)
			continue
		}
		setup = append(setup, d.Seconds())
	}

	n := len(in.pkts)
	var rate, allocs, heap, p50s, p90s []float64
	beyond50, beyond90 := 0, 0
	for _, r := range reps {
		rate = append(rate, float64(n)/r.wall.Seconds())
		allocs = append(allocs, float64(r.allocs)/float64(n))
		heap = append(heap, float64(r.heap)/(1<<20))
		flush := make([]float64, len(r.flushes))
		for i, f := range r.flushes {
			flush[i] = millis(f)
		}
		p, b := percentile(flush, 50)
		p50s, beyond50 = append(p50s, p), beyond50+b
		p, b = percentile(flush, 90)
		p90s, beyond90 = append(p90s, p), beyond90+b
	}
	// Each flush percentile is taken within a repetition and the
	// median over repetitions reported, as for the other metrics, so
	// one repetition slowed by the host does not move it.
	p50, p90 := median(p50s), median(p90s)
	fmt.Fprintf(out, "workload %s seed %d: %d repetitions of %d packets, reference %s\n",
		in.w.name, in.seed, len(reps), n, in.ref)
	q1, _ := percentile(rate, 25)
	q3, _ := percentile(rate, 75)
	fmt.Fprintf(out, "pkts_per_s over repetitions: q1 %.4g median %.4g q3 %.4g; setup samples %d\n",
		q1, median(rate), q3, len(setup))
	fmt.Fprintf(out, "failed_frac %g (%d of %d operations)\n", float64(failed)/float64(attempted), failed, attempted)
	fmt.Fprintf(out, "flush latency: %d samples per repetition, %d repetitions; summed over them, p50 has %d beyond (%s), p90 has %d beyond (%s)\n",
		in.flushes, len(reps), beyond50, supported(beyond50), beyond90, supported(beyond90))
	if in.flushes == 1 {
		fmt.Fprintln(out, "flush latency: one flush per repetition, so flush_ms_p50 and flush_ms_p90 are both the median final flush")
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"pkts_per_s":     {median(rate), "1/s"},
			"setup_s":        {median(setup), "s"},
			"flush_ms_p50":   {p50, "ms"},
			"flush_ms_p90":   {p90, "ms"},
			"allocs_per_pkt": {median(allocs), "count"},
			"heap_mb":        {median(heap), "MiB"},
		},
	}, nil
}

// supported says whether a percentile rests on at least ten samples
// beyond it.
func supported(beyond int) string {
	if beyond >= 10 {
		return "supported"
	}
	return "UNSUPPORTED: fewer than 10 samples beyond"
}
