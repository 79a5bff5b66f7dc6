package main

import (
	"fmt"
	"runtime"
	"time"

	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/nicsim"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/switchsim"
)

// engineCfg selects the one-shot deployment a repetition runs.
type engineCfg struct {
	sequential bool // core.New instead of core.NewParallel
	obs        bool // telemetry on (obs.DefaultOptions)
}

// rep is one measured repetition: a fresh deployment fed the
// workload's packets at its flush cadence.
type rep struct {
	setup time.Duration // deployment construction
	// wall runs from the first packet handed over (Process, or the
	// first ingest byte) to the final flush completing.
	wall    time.Duration
	flushes []time.Duration // one per flush barrier
	allocs  uint64          // heap allocations inside wall
	heap    int64           // HeapInuse growth from before set-up to after the final flush
	got     digest          // emitted vectors
	sw      switchsim.Stats // merged counters after the final flush
	nic     nicsim.RuntimeStats
}

// oneShot deploys cfg, replays the workload through it and flushes at
// the workload's cadence. With a tracer it records a root span named
// name, a setup span and one span per frameSize-packet Process run and
// per flush.
func oneShot(in *inputs, cfg engineCfg, tr *tracer, name string) (*rep, error) {
	pol, err := newPolicy(in.w)
	if err != nil {
		return nil, err
	}
	r := &rep{flushes: make([]time.Duration, 0, in.flushes)}
	var (
		process func([]packet.Packet)
		flush   func() error
		stats   func()
		closeFn func() error
	)
	base := heapInuse() // collects: every set-up starts from a collected heap
	root := tr.begin(name, -1)
	sp := tr.begin("setup", root)
	t0 := time.Now()
	if cfg.sequential {
		fe, err := core.New(core.DefaultOptions(), pol, r.got.add)
		if err != nil {
			return nil, err
		}
		process = func(ps []packet.Packet) {
			for i := range ps {
				fe.Process(&ps[i])
			}
		}
		flush = func() error { fe.Flush(); return fe.Err() }
		stats = func() { r.sw, r.nic = fe.SwitchStats(), fe.NICStats() }
		closeFn = func() error { return nil }
	} else {
		opts := core.DefaultParallelOptions()
		opts.Workers = in.w.workers
		if cfg.obs {
			opts.Obs = obs.DefaultOptions()
			opts.Obs.Enabled = true
		}
		pe, err := core.NewParallel(opts, pol, r.got.add)
		if err != nil {
			return nil, err
		}
		process = func(ps []packet.Packet) {
			for i := range ps {
				pe.Process(&ps[i])
			}
		}
		flush = pe.Flush
		stats = func() { r.sw, r.nic = pe.SwitchStats(), pe.NICStats() }
		closeFn = pe.Close
	}
	r.setup = time.Since(t0)
	tr.end(sp)

	var ferr error
	a0 := mallocs()
	start := time.Now()
	forEpoch(len(in.pkts), in.w.epoch, func(lo, hi int) {
		for c := lo; c < hi; c += frameSize {
			sp := tr.begin("engine.process", root)
			process(in.pkts[c:min(c+frameSize, hi)])
			tr.end(sp)
		}
		if in.flushes == 1 {
			// A replay's single flush is timed from a collected heap.
			// Kitsune's final flush makes ~6M allocations, and a
			// collection cycle the pacer happens to start inside it
			// adds ~100 ms or not from one repetition to the next. The
			// collection stays inside wall.
			gc := tr.begin("gc", root)
			runtime.GC()
			tr.end(gc)
		}
		sp := tr.begin("engine.flush", root)
		f0 := time.Now()
		if err := flush(); err != nil && ferr == nil {
			ferr = err
		}
		r.flushes = append(r.flushes, time.Since(f0))
		tr.end(sp)
	})
	r.wall = time.Since(start)
	r.allocs = mallocs() - a0
	tr.end(root)
	r.heap = int64(heapInuse() - base)
	stats()
	if err := closeFn(); err != nil && ferr == nil {
		ferr = err
	}
	if ferr != nil {
		return nil, fmt.Errorf("flush: %w", ferr)
	}
	return r, nil
}

// deployOnce times the one-shot deployment's construction
// (core.NewParallel) and tears it down again.
func deployOnce(in *inputs) (time.Duration, error) {
	pol, err := newPolicy(in.w)
	if err != nil {
		return 0, err
	}
	opts := core.DefaultParallelOptions()
	opts.Workers = in.w.workers
	runtime.GC()
	t0 := time.Now()
	pe, err := core.NewParallel(opts, pol, func(feature.Vector) {})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, pe.Close()
}
