package main

import (
	"fmt"
	"strings"

	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/serve"
	"superfe/internal/trace"
)

// workload is one set of generated inputs plus the deployment that
// runs them. README.md records why each was chosen.
type workload struct {
	name    string
	policy  string               // bundled application (serve.ResolveCatalog)
	trace   trace.WorkloadConfig // Table 2 trace generator
	passes  int                  // consecutive trace passes per repetition
	workers int                  // engine shards
	// epoch is the flush cadence in packets; 0 flushes once, after
	// the last pass.
	epoch int
	// service runs the deployment as a serve.Server tenant over a unix
	// socket instead of a one-shot core.ParallelEngine.
	service bool
}

// Service load shape: ingest frames of frameSize packets, a Flush
// (and its ack) closing every epochSize-packet epoch.
const (
	frameSize = 256
	epochSize = 4096
)

// The Kitsune replay runs one pass where the campus replay runs two.
// One pass takes about 2 s and leaves ~410 MiB of NIC state; a second
// pass would roughly double both the traced run (~65 s) and its peak
// memory (~0.9 GB).
var workloads = []workload{
	{name: "replay-campus-npod", policy: "NPOD", trace: trace.CampusConfig, passes: 2, workers: 1},
	{name: "replay-enterprise-kitsune", policy: "Kitsune", trace: trace.EnterpriseConfig, passes: 1, workers: 2},
	{name: "serve-campus-npod", policy: "NPOD", trace: trace.CampusConfig, passes: 1, workers: 1, epoch: epochSize, service: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// inputs are a workload's generated packets and the reference output
// every run is checked against.
type inputs struct {
	w    workload
	seed int64
	pkts []packet.Packet
	// flushes is the number of flush barriers one repetition issues.
	flushes int
	// ref is the sequential engines' digest over pkts at the same
	// flush cadence and sharding (see reference).
	ref digest
	// single is one sequential engine's digest over pkts; with more
	// than one worker it may differ from ref, and the FG-table
	// overwrite counts of the single and the sharded deployments
	// explain the difference.
	single              digest
	fgSingle, fgSharded uint64
	// Traced runs only: the wire bytes of every reference vector as a
	// subscriber frame, and a prefix of the vectors for the encode
	// harness holding sampleFloats values in all.
	wireBytes     uint64
	sample        []feature.Vector
	sampledFloats int
}

// sampleFloats bounds the vector values kept for the encode harness.
const sampleFloats = 1 << 21

// prepare generates the workload's packets from the seed and computes
// the reference digest. This is load-generator work, outside every
// measured window.
func prepare(w workload, seed int64, traced bool) (*inputs, error) {
	tr := trace.Generate(w.trace, seed)
	if len(tr.Packets) == 0 {
		return nil, fmt.Errorf("%s: empty trace for seed %d", w.trace.Name, seed)
	}
	in := &inputs{w: w, seed: seed, pkts: passes(tr.Packets, w.passes)}
	in.flushes = 1
	if w.epoch > 0 {
		in.flushes = (len(in.pkts) + w.epoch - 1) / w.epoch
	}
	var frame, payload []byte
	sink := func(v feature.Vector) {
		in.ref.add(v)
		if !traced {
			return
		}
		payload = serve.AppendVector(payload[:0], &v)
		frame, _ = gpv.AppendFrame(frame[:0], serve.FrameVector, payload) // bounded: one vector is far below MaxFramePayload
		in.wireBytes += uint64(len(frame))
		if in.sampledFloats < sampleFloats {
			in.sample = append(in.sample, feature.Vector{Key: v.Key, Timestamp: v.Timestamp, Values: append([]float64(nil), v.Values...)})
			in.sampledFloats += len(v.Values)
		}
	}
	var err error
	if in.fgSharded, err = reference(in, w.workers, sink); err != nil {
		return nil, err
	}
	in.single, in.fgSingle = in.ref, in.fgSharded
	if w.workers > 1 {
		in.single = digest{}
		if in.fgSingle, err = reference(in, 1, in.single.add); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// reference runs the sequential engine (core.New) once per shard of a
// workers-shard deployment: each packet goes to the engine of the
// shard the parallel engine's router picks for it, and every engine
// flushes at every flush barrier. Each parallel shard is a sequential
// engine fed its share of the packets in order, so this is the output
// the parallel engine must reproduce exactly; with one worker it is
// the plain sequential engine. It returns the merged FG-table
// overwrite count.
func reference(in *inputs, workers int, sink feature.Sink) (uint64, error) {
	pol, err := newPolicy(in.w)
	if err != nil {
		return 0, err
	}
	plan, err := policy.Compile(pol)
	if err != nil {
		return 0, err
	}
	engines := make([]*core.SuperFE, workers)
	for i := range engines {
		if engines[i], err = core.New(core.DefaultOptions(), pol, sink); err != nil {
			return 0, fmt.Errorf("reference engine: %w", err)
		}
	}
	cg := plan.Switch.CG
	forEpoch(len(in.pkts), in.w.epoch, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := &in.pkts[i]
			key, _ := flowkey.KeyFor(cg, p.Tuple)
			engines[shardIndex(flowkey.HashKey(key), workers)].Process(p)
		}
		for _, fe := range engines {
			fe.Flush()
		}
	})
	var overwrites uint64
	for _, fe := range engines {
		if err := fe.Err(); err != nil {
			return 0, fmt.Errorf("reference engine: %w", err)
		}
		overwrites += fe.SwitchStats().FGOverwrites
	}
	return overwrites, nil
}

// shardIndex is the parallel engine's routing rule: fastrange over
// the CG key hash.
func shardIndex(h uint32, n int) int {
	return int((uint64(h) * uint64(n)) >> 32)
}

// newPolicy builds a fresh instance of the workload's policy.
func newPolicy(w workload) (*policy.Policy, error) {
	return serve.ResolveCatalog(w.policy)
}

// passes replays the trace n times back to back, shifting each pass
// forward by the trace span so timestamps stay monotone and every
// pass re-ages the switch.
func passes(pkts []packet.Packet, n int) []packet.Packet {
	span := pkts[len(pkts)-1].Timestamp - pkts[0].Timestamp + 1
	out := make([]packet.Packet, 0, n*len(pkts))
	for k := 0; k < n; k++ {
		for _, p := range pkts {
			p.Timestamp += int64(k) * span
			out = append(out, p)
		}
	}
	return out
}

// forEpoch calls fn on consecutive [lo, hi) packet ranges of at most
// epoch packets (the whole input when epoch is 0). Each call ends
// with the caller's flush barrier.
func forEpoch(n, epoch int, fn func(lo, hi int)) {
	if epoch <= 0 {
		epoch = n
	}
	for lo := 0; lo < n; lo += epoch {
		fn(lo, min(lo+epoch, n))
	}
}
