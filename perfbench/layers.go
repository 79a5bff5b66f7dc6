package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"superfe/internal/apps"
	"superfe/internal/core"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/nicsim"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/planvet"
	"superfe/internal/policy"
	"superfe/internal/serve"
	"superfe/internal/switchsim"
)

// layers holds one workload's inputs recast for each layer's public
// entry point, built once and replayed every round:
//
//   - router: flowkey.KeyFor/HashKey, Predicate.Eval and
//     switchsim.Columns.Append into a pre-allocated batch pool, routed
//     to shards and cut into batches exactly as core.ParallelEngine's
//     router does;
//   - switch: Switch.ProcessColumns over those batches (and Flush at
//     each barrier) with a counting sink;
//   - nic: Runtime.Process over the messages the switch emitted,
//     deep-copied through gpv Marshal/Unmarshal, then Flush;
//   - serve: DecodePackets over the workload's packets cut into ingest
//     frames and AppendVector over a prefix of the emitted vectors.
type layers struct {
	in      *inputs
	plan    *policy.Plan
	workers int
	batch   int

	pool   []*switchsim.Columns // router output buffers, reused every round
	events [][]*switchsim.Columns
	msgs   [][]nicEvent
	cells  uint64 // MGPV cells the NIC consumes per round

	payloads [][]byte // the packets as ingest frames
	decoded  []packet.Packet
	encoded  []byte
	keySink  uint32
}

// nicEvent is one recorded switch→NIC message, or a flush barrier
// when flush is set.
type nicEvent struct {
	msg   gpv.Message
	flush bool
}

// flushMark is a nil batch in layers.events: a flush barrier.
var flushMark *switchsim.Columns

func newLayers(in *inputs) (*layers, error) {
	pol, err := newPolicy(in.w)
	if err != nil {
		return nil, err
	}
	plan, err := policy.Compile(pol)
	if err != nil {
		return nil, err
	}
	l := &layers{
		in:      in,
		plan:    plan,
		workers: in.w.workers,
		batch:   core.DefaultParallelOptions().BatchSize,
		events:  make([][]*switchsim.Columns, in.w.workers),
		msgs:    make([][]nicEvent, in.w.workers),
	}
	// Every full batch, plus one partial batch per shard at each
	// barrier, plus the batch each shard holds open at the end.
	nb := len(in.pkts)/l.batch + l.workers*(in.flushes+2)
	nf := len(plan.Switch.MetadataFields)
	l.pool = make([]*switchsim.Columns, nb)
	for i := range l.pool {
		l.pool[i] = switchsim.NewColumns(l.batch, nf)
	}
	for s := range l.events {
		l.events[s] = make([]*switchsim.Columns, 0, nb)
	}
	l.route(nil, -1)
	if _, _, err := l.runSwitch(nil, -1, true); err != nil {
		return nil, err
	}
	forEpoch(len(in.pkts), in.w.epoch, func(lo, hi int) {
		for c := lo; c < hi; c += frameSize {
			var pl []byte
			for i := c; i < min(c+frameSize, hi); i++ {
				pl = serve.AppendPacket(pl, &in.pkts[i])
			}
			l.payloads = append(l.payloads, pl)
		}
	})
	l.decoded = make([]packet.Packet, 0, frameSize)
	return l, nil
}

// route is the router layer: it computes every packet's CG key, hash,
// shard and filter verdict, fills the shard's columnar batch and cuts
// it when full, and at each flush barrier cuts the partial batches and
// queues a flush mark — the batch sequence each shard of a
// core.ParallelEngine receives. It returns the time spent in its
// spans.
func (l *layers) route(tr *tracer, parent int) time.Duration {
	pred, cg, fields := l.plan.Switch.Pred, l.plan.Switch.CG, l.plan.Switch.MetadataFields
	next := 0
	take := func() *switchsim.Columns {
		c := l.pool[next]
		next++
		c.Reset()
		return c
	}
	cur := make([]*switchsim.Columns, l.workers)
	for s := range cur {
		cur[s] = take()
		l.events[s] = l.events[s][:0]
	}
	var busy time.Duration
	pkts := l.in.pkts
	forEpoch(len(pkts), l.in.w.epoch, func(lo, hi int) {
		for c := lo; c < hi; c += frameSize {
			sp := tr.begin("router.fill", parent)
			for i := c; i < min(c+frameSize, hi); i++ {
				p := &pkts[i]
				key, _ := flowkey.KeyFor(cg, p.Tuple)
				h := flowkey.HashKey(key)
				s := shardIndex(h, l.workers)
				b := cur[s]
				b.Append(p, key, h, pred.Eval(p), fields)
				if b.N >= l.batch {
					l.events[s] = append(l.events[s], b)
					cur[s] = take()
				}
			}
			tr.end(sp)
			busy += tr.dur(sp)
		}
		sp := tr.begin("router.barrier", parent)
		for s, b := range cur {
			if b.N > 0 {
				l.events[s] = append(l.events[s], b)
				cur[s] = take()
			}
			l.events[s] = append(l.events[s], flushMark)
		}
		tr.end(sp)
		busy += tr.dur(sp)
	})
	return busy
}

// keyHash times flowkey.KeyFor plus HashKey alone, the part of the
// router the CG hash costs.
func (l *layers) keyHash(tr *tracer, parent int) time.Duration {
	cg := l.plan.Switch.CG
	pkts := l.in.pkts
	var x uint32
	var busy time.Duration
	for c := 0; c < len(pkts); c += frameSize {
		sp := tr.begin("router.keyhash", parent)
		for i := c; i < min(c+frameSize, len(pkts)); i++ {
			key, _ := flowkey.KeyFor(cg, pkts[i].Tuple)
			x ^= flowkey.HashKey(key)
		}
		tr.end(sp)
		busy += tr.dur(sp)
	}
	l.keySink = x
	return busy
}

// runSwitch is the switch layer: one switchsim.Switch per shard,
// configured as core deploys it (zero-copy, flight recorder on), fed
// the router's batches. With record it keeps every emitted message,
// deep-copied through the wire codec, for the NIC layer; otherwise
// the sink only counts, and the count must match the switch's
// MsgsOut. It returns the merged counters and the time
// spent in ProcessColumns and Flush.
func (l *layers) runSwitch(tr *tracer, parent int, record bool) (switchsim.Stats, time.Duration, error) {
	var total switchsim.Stats
	var busy time.Duration
	for s := 0; s < l.workers; s++ {
		cfg := core.DefaultOptions().Switch
		cfg.ZeroCopy = true
		cfg.FlightRec = obs.NewFlightRecorder(s, obs.FlightRecOptions{})
		var msgs uint64
		var recErr error
		var buf []byte
		sink := func(gpv.Message) { msgs++ }
		if record {
			l.msgs[s] = l.msgs[s][:0]
			sink = func(m gpv.Message) {
				msgs++
				var err error
				if buf, err = m.Marshal(buf[:0]); err == nil {
					m, _, err = gpv.Unmarshal(buf)
				}
				if err != nil && recErr == nil {
					recErr = err
				}
				if m.MGPV != nil {
					l.cells += uint64(len(m.MGPV.Cells))
				}
				l.msgs[s] = append(l.msgs[s], nicEvent{msg: m})
			}
		}
		sw, err := switchsim.New(cfg, l.plan.Switch, sink)
		if err != nil {
			return total, 0, err
		}
		for _, b := range l.events[s] {
			if b == flushMark {
				sp := tr.begin("switch.flush", parent)
				sw.Flush()
				tr.end(sp)
				busy += tr.dur(sp)
				if record {
					l.msgs[s] = append(l.msgs[s], nicEvent{flush: true})
				}
				continue
			}
			sp := tr.begin("switch.columns", parent)
			sw.ProcessColumns(b)
			tr.end(sp)
			busy += tr.dur(sp)
		}
		if recErr != nil {
			return total, 0, fmt.Errorf("recording switch messages: %w", recErr)
		}
		if st := sw.Stats(); msgs != st.MsgsOut {
			return total, 0, fmt.Errorf("switch shard %d: sink saw %d messages, MsgsOut is %d", s, msgs, st.MsgsOut)
		}
		total.Add(sw.Stats())
	}
	return total, busy, nil
}

// nicRound is one replay of the recorded messages through the NIC.
type nicRound struct {
	busy       time.Duration
	allocs     uint64
	stats      nicsim.RuntimeStats
	got        digest
	flushVecs  uint64 // vectors emitted by Flush calls
	stateBytes int
}

// runNIC is the NIC layer: one nicsim.Runtime per shard, configured
// as core deploys it, fed the recorded messages in order with Flush at
// each barrier. The sink is the same digest the end-to-end runs use.
func (l *layers) runNIC(tr *tracer, parent int) (nicRound, error) {
	var r nicRound
	rts := make([]*nicsim.Runtime, l.workers)
	for s := range rts {
		cfg := core.DefaultOptions().NIC
		cfg.FlightRec = obs.NewFlightRecorder(s, obs.FlightRecOptions{})
		rt, err := nicsim.NewRuntime(cfg, l.plan, r.got.add)
		if err != nil {
			return r, err
		}
		rts[s] = rt
	}
	a0 := mallocs()
	for s, rt := range rts {
		evs := l.msgs[s]
		for i := 0; i < len(evs); {
			if evs[i].flush {
				before := r.got.n
				sp := tr.begin("nic.flush", parent)
				rt.Flush()
				tr.end(sp)
				r.busy += tr.dur(sp)
				r.flushVecs += r.got.n - before
				i++
				continue
			}
			sp := tr.begin("nic.process", parent)
			for n := 0; n < frameSize && i < len(evs) && !evs[i].flush; n, i = n+1, i+1 {
				rt.Process(evs[i].msg)
			}
			tr.end(sp)
			r.busy += tr.dur(sp)
		}
	}
	r.allocs = mallocs() - a0
	for _, rt := range rts {
		r.stats.Add(rt.Stats())
		r.stateBytes += rt.StateBytes()
	}
	return r, nil
}

// decode times serve.DecodePackets over the workload's ingest frames.
func (l *layers) decode(tr *tracer, parent int) (time.Duration, error) {
	var busy time.Duration
	for _, pl := range l.payloads {
		sp := tr.begin("serve.decode", parent)
		var err error
		l.decoded, err = serve.DecodePackets(l.decoded[:0], pl)
		tr.end(sp)
		busy += tr.dur(sp)
		if err != nil {
			return 0, err
		}
	}
	return busy, nil
}

// encode times serve.AppendVector over the sampled vectors.
func (l *layers) encode(tr *tracer, parent int) time.Duration {
	var busy time.Duration
	vs := l.in.sample
	for c := 0; c < len(vs); c += frameSize {
		sp := tr.begin("serve.encode", parent)
		for i := c; i < min(c+frameSize, len(vs)); i++ {
			l.encoded = serve.AppendVector(l.encoded[:0], &vs[i])
		}
		tr.end(sp)
		busy += tr.dur(sp)
	}
	return busy
}

// round holds one round's measurements in ns/pkt (setup in seconds).
type round map[string]float64

// traceRound runs every layer harness and every end-to-end variant
// once, in a fixed interleaved order, and checks that each harness
// reproduces the end-to-end run it stands in for.
func (l *layers) traceRound(tr *tracer, svc *service) (round, error) {
	in := l.in
	n := len(in.pkts)
	r := round{}
	w := in.w

	// Set-up: compile and vet (the service's planvet/planprove gate).
	pol, err := newPolicy(w)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("setup.compile", -1)
	plan, err := policy.Compile(pol)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r["setup.compile_s"] = tr.dur(sp).Seconds()
	sp = tr.begin("setup.vet", -1)
	vet := planvet.Check(planvet.DefaultModel(), pol.Name(), plan)
	unwaived := vet.Proof.Unwaived(apps.Waivers())
	tr.end(sp)
	if !vet.Feasible() || len(unwaived) > 0 {
		return nil, fmt.Errorf("planvet rejects %s", pol.Name())
	}
	r["setup.vet_s"] = tr.dur(sp).Seconds()

	// End to end, untraced then traced.
	e2e := func(t *tracer, name string) (*rep, error) {
		if w.service {
			return svc.rep(in, t, name)
		}
		return oneShot(in, engineCfg{}, t, name)
	}
	untraced, err := e2e(nil, "e2e")
	if err != nil {
		return nil, err
	}
	traced, err := e2e(tr, "e2e.traced")
	if err != nil {
		return nil, err
	}
	for _, x := range []*rep{untraced, traced} {
		if x.got != in.ref {
			return nil, fmt.Errorf("end-to-end output %s differs from the reference %s", x.got, in.ref)
		}
	}
	r["e2e"] = nsPer(untraced.wall, n)
	r["e2e.traced"] = nsPer(traced.wall, n)

	// Variants at the workload's cadence: sequential, the parallel
	// engine with obs off and on, and the service. For a replay
	// workload the obs-off variant is the end-to-end run itself; for
	// the service workload the service variant is.
	variant := func(cfg engineCfg, name string, want digest) (*rep, error) {
		sp := tr.begin(name, -1)
		defer tr.end(sp)
		x, err := oneShot(in, cfg, nil, name)
		if err == nil && x.got != want {
			err = fmt.Errorf("%s output %s differs from the reference %s", name, x.got, want)
		}
		return x, err
	}
	off, served := untraced, untraced
	if w.service {
		if off, err = variant(engineCfg{}, "parallel.obs_off", in.ref); err != nil {
			return nil, err
		}
	} else {
		if served, err = svc.rep(in, nil, "service"); err != nil {
			return nil, err
		}
		if served.got != in.ref {
			return nil, fmt.Errorf("service output %s differs from the reference %s", served.got, in.ref)
		}
	}
	on, err := variant(engineCfg{obs: true}, "parallel.obs_on", in.ref)
	if err != nil {
		return nil, err
	}
	seq, err := variant(engineCfg{sequential: true}, "sequential", in.single)
	if err != nil {
		return nil, err
	}
	r["parallel.obs_off"] = nsPer(off.wall, n)
	r["parallel.obs_on"] = nsPer(on.wall, n)
	r["sequential"] = nsPer(seq.wall, n)
	r["service"] = nsPer(served.wall, n)
	r["setup.deploy_s"] = on.setup.Seconds() - r["setup.compile_s"]
	if !w.service {
		r["setup.deploy_s"] = off.setup.Seconds() - r["setup.compile_s"]
	}

	// Layer harnesses.
	root := tr.begin("router", -1)
	r["router.keyhash"] = nsPer(l.keyHash(tr, root), n)
	r["router"] = nsPer(l.route(tr, root), n)
	tr.end(root)

	root = tr.begin("switch", -1)
	swStats, busy, err := l.runSwitch(tr, root, false)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if swStats != off.sw {
		return nil, fmt.Errorf("ATTRIBUTION SELF-CHECK: switch harness counters differ from the engine's merged SwitchStats\nharness: %+v\nengine:  %+v", swStats, off.sw)
	}
	r["switch"] = nsPer(busy, n)
	r["switch.cells_per_msg"] = float64(swStats.CellsOut) / float64(swStats.MsgsOut)
	var ev uint64
	for _, e := range swStats.Evictions {
		ev += e
	}
	r["switch.evictions_per_kpkt"] = float64(ev) * 1000 / float64(n)

	root = tr.begin("nic", -1)
	nr, err := l.runNIC(tr, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if nr.stats != off.nic || nr.got != in.ref {
		return nil, fmt.Errorf("ATTRIBUTION SELF-CHECK: NIC replay differs from the end-to-end run\nharness: %+v, %s\nengine:  %+v, reference %s", nr.stats, nr.got, off.nic, in.ref)
	}
	r["nic"] = nsPer(nr.busy, n)
	r["nic.ns_per_cell"] = nsPer(nr.busy, int(l.cells))
	r["nic.allocs_per_pkt"] = float64(nr.allocs) / float64(n)
	r["nic.vectors_per_flush"] = float64(nr.flushVecs) / float64(in.flushes)
	r["nic.state_bytes"] = float64(nr.stateBytes)

	root = tr.begin("serve", -1)
	d, err := l.decode(tr, root)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	r["serve.decode"] = nsPer(d, n)
	r["serve.encode_per_vec"] = nsPer(l.encode(tr, root), len(in.sample))
	tr.end(root)
	return r, nil
}

// minRounds is the least number of measured rounds of a traced run.
const minRounds = 3

// tracedRun is --trace 1: one warm-up round, then rounds until the
// budget is spent. It reports the median of each layer figure, derives
// the difference layers (hand-off, obs, tenant) from paired figures of
// the same round, and closes the sum with the unattributed remainder.
func tracedRun(in *inputs, budget time.Duration, out io.Writer) (result, error) {
	l, err := newLayers(in)
	if err != nil {
		return result{}, err
	}
	svc, err := startService()
	if err != nil {
		return result{}, err
	}
	defer svc.close()
	tr := newTracer(in.w.name)
	var rounds []round
	var start time.Time
	for i := 0; i <= minRounds || time.Since(start) < budget; i++ {
		if i == 1 {
			start = time.Now()
		}
		r, err := l.traceRound(tr, svc)
		if err != nil {
			return result{}, err
		}
		if i > 0 {
			rounds = append(rounds, r)
		}
	}
	med := func(key string) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = r[key]
		}
		return median(xs)
	}
	diff := func(a, b string) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = r[a] - r[b]
		}
		return median(xs)
	}

	n := float64(len(in.pkts))
	m := map[string]metric{}
	ns := func(name string, v float64) { m[name] = metric{v, "ns/pkt"} }
	ns("router.ns_per_pkt", med("router"))
	ns("router.keyhash.ns_per_pkt", med("router.keyhash"))
	ns("switch.ns_per_pkt", med("switch"))
	m["switch.cells_per_msg"] = metric{med("switch.cells_per_msg"), "count"}
	m["switch.evictions_per_kpkt"] = metric{med("switch.evictions_per_kpkt"), "count"}
	ns("nic.ns_per_pkt", med("nic"))
	m["nic.ns_per_cell"] = metric{med("nic.ns_per_cell"), "ns/cell"}
	m["nic.allocs_per_pkt"] = metric{med("nic.allocs_per_pkt"), "count"}
	cycles, err := modelCycles(l.plan)
	if err != nil {
		return result{}, err
	}
	m["nic.model_cycles_per_cell"] = metric{cycles, "cycles"}
	m["nic.vectors_per_flush"] = metric{med("nic.vectors_per_flush"), "count"}
	m["nic.state_bytes"] = metric{med("nic.state_bytes"), "B"}
	// The hand-off is the parallel engine (at the workload's worker
	// count, obs off) minus the sequential engine on the same input.
	ns("handoff.ns_per_pkt", diff("parallel.obs_off", "sequential"))
	ns("obs.overhead_ns_per_pkt", diff("parallel.obs_on", "parallel.obs_off"))
	m["setup.compile_s"] = metric{med("setup.compile_s"), "s"}
	m["setup.vet_s"] = metric{med("setup.vet_s"), "s"}
	m["setup.deploy_s"] = metric{med("setup.deploy_s"), "s"}
	ns("trace.overhead_ns_per_pkt", diff("e2e.traced", "e2e"))
	ns("e2e.traced_ns_per_pkt", med("e2e.traced"))

	// The tenant layer is the service minus a one-shot run with the
	// same cadence and obs on; decode and encode are parts of it.
	ns("serve.tenant.ns_per_pkt", diff("service", "parallel.obs_on"))
	ns("serve.decode.ns_per_pkt", med("serve.decode"))
	m["serve.encode.ns_per_vec"] = metric{med("serve.encode_per_vec"), "ns/vec"}
	m["serve.vector_bytes_per_pkt"] = metric{float64(in.wireBytes) / n, "B/pkt"}

	// Layers on the workload's path. The service path also runs with
	// obs on and through the tenant.
	onPath := []string{"router.ns_per_pkt", "switch.ns_per_pkt", "nic.ns_per_pkt", "handoff.ns_per_pkt"}
	if in.w.service {
		onPath = append(onPath, "obs.overhead_ns_per_pkt", "serve.tenant.ns_per_pkt")
	}
	sum := 0.0
	for _, k := range onPath {
		sum += m[k].Value
	}
	total := m["e2e.traced_ns_per_pkt"].Value
	ns("unattributed.ns_per_pkt", total-sum)

	fmt.Fprintf(out, "workload %s seed %d: %d traced rounds of %d packets, reference %s\n",
		in.w.name, in.seed, len(rounds), len(in.pkts), in.ref)
	terms := make([]string, 0, len(onPath)+1)
	for _, k := range append(onPath, "unattributed.ns_per_pkt") {
		terms = append(terms, fmt.Sprintf("%s %.1f", k, m[k].Value))
	}
	fmt.Fprintf(out, "attribution: e2e.traced %.1f ns/pkt = %s\n", total, strings.Join(terms, " + "))
	fmt.Fprintf(out, "modeled vs measured NIC cost: %.1f cycles/cell vs %.1f ns/cell\n",
		m["nic.model_cycles_per_cell"].Value, m["nic.ns_per_cell"].Value)
	fmt.Fprintf(out, "self time by span (all rounds):")
	for _, t := range tr.selfByName() {
		fmt.Fprintf(out, " %s=%.1fms/%d", t.name, float64(t.selfNS)/1e6, t.spans)
	}
	fmt.Fprintln(out)
	path, err := tr.write(filepath.Join(".bench_build", "spans"), in.seed)
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	fmt.Fprintln(out, svc.registration())

	// Every round checked every output, so a traced run that returns
	// has no failed operation.
	return result{Correct: true, Attempted: len(rounds) + 1, Failed: 0, Metrics: m}, nil
}

// modelCycles is the NIC cost model's price of one cell for the plan
// on the default NIC (nicsim.CostModel.CyclesPerCell).
func modelCycles(plan *policy.Plan) (float64, error) {
	cfg := core.DefaultOptions().NIC
	pl, err := nicsim.Place(cfg, plan.NIC.StateSpecs)
	if err != nil {
		return 0, fmt.Errorf("NIC placement: %w", err)
	}
	return nicsim.NewCostModel(cfg, plan.NIC, pl).CyclesPerCell(), nil
}
