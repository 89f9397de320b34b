package main

import (
	"context"
	"fmt"
	"time"

	"degradable/internal/acast"
	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/eig"
	"degradable/internal/fleet"
	"degradable/internal/obs"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/service"
	"degradable/internal/spec"
	"degradable/internal/types"
	"degradable/internal/vote"
	"degradable/internal/wire"
)

// A suite peels one kind of operation: requests (straight to a server, or
// through the router), synchronous scenarios, async runs. A traced pass
// runs every suite — with many operations on the inputs of the workload
// being traced where the suite's operations are that workload's, and with
// a few on the suite's home inputs otherwise — so one traced pass prints
// the whole layer table and every time in it is a measurement.

// suiteOut is what one suite measured.
type suiteOut struct {
	name   string
	native bool               // the operations were the traced workload's own
	values map[string]float64 // per-layer metric → value
	ops    int                // root operations run
	failed int
	// e2e and layers are ns sums over the reconciliation half of the
	// operations: the real operations' durations, and their peeled layers'
	// (remainder layers taken from the other half, so the ratio is a
	// measurement and not an identity).
	e2e, layers float64
	// cpuPlain and cpuTraced are CPU ns per operation of the plain loop and
	// of the traced loops (roots plus replays) over the same operations.
	cpuPlain, cpuTraced float64
	tr                  *tracer
}

// perOp sets values[name] to the layer's self time per operation.
func (s *suiteOut) perOp(l layerID, ops int) {
	if ops > 0 {
		s.values[perLayer[l].Name] = float64(s.tr.self[l]) / float64(ops)
	}
}

// timedDriver is the benchmark-side round.Driver: the reference schedule of
// the documented Deliver/Step/Collect/Finish contract, every call a span.
type timedDriver struct{ t *tracer }

func (d timedDriver) Drive(e *round.Engine) error {
	n := e.N()
	for r := 1; r <= e.Rounds(); r++ {
		d.t.begin(lDeliver)
		e.Deliver()
		d.t.end()
		for i := 0; i < n; i++ {
			d.t.begin(lStep)
			out := e.Node(i).Step(r, e.Inbox(i))
			d.t.end()
			d.t.begin(lCollect)
			e.Collect(i, r, out)
			d.t.end()
		}
	}
	d.t.begin(lDeliver)
	e.Deliver()
	d.t.end()
	for i := 0; i < n; i++ {
		d.t.begin(lFinish)
		e.Node(i).Finish(e.Inbox(i))
		d.t.end()
	}
	return nil
}

// timedChannel and timedExpander are spans around a channel's deliveries;
// they nest inside the engine's Deliver span, whose self time is then the
// engine's own.
type timedChannel struct {
	inner round.Channel
	t     *tracer
	l     layerID
}

func (c timedChannel) Deliver(m types.Message) (types.Message, bool) {
	c.t.begin(c.l)
	dm, ok := c.inner.Deliver(m)
	c.t.end()
	return dm, ok
}

type timedExpander struct {
	inner round.Expander
	t     *tracer
	l     layerID
}

func (c timedExpander) Deliver(m types.Message) (types.Message, bool) {
	c.t.begin(c.l)
	dm, ok := c.inner.Deliver(m)
	c.t.end()
	return dm, ok
}

func (c timedExpander) DeliverAll(m types.Message) []types.Message {
	c.t.begin(c.l)
	out := c.inner.DeliverAll(m)
	c.t.end()
	return out
}

// timedAsyncNode is a span around each call into an async node.
type timedAsyncNode struct {
	round.AsyncNode
	t  *tracer
	on layerID
}

func (n timedAsyncNode) Start() []types.Message {
	n.t.begin(lACastStart)
	out := n.AsyncNode.Start()
	n.t.end()
	return out
}

func (n timedAsyncNode) OnDeliver(m types.Message) []types.Message {
	n.t.begin(n.on)
	out := n.AsyncNode.OnDeliver(m)
	n.t.end()
	return out
}

// traffic sums the engines' exact counts over a suite's replays.
type traffic struct{ msgs, bytes, delivered int }

func (tr *traffic) add(res *round.Result) {
	tr.msgs += res.Messages
	tr.bytes += res.Bytes
	tr.delivered += res.Delivered
}

func (tr traffic) into(values map[string]float64, ops int) {
	if ops > 0 {
		values["round.msgs_per_op"] = float64(tr.msgs) / float64(ops)
		values["round.bytes_per_op"] = float64(tr.bytes) / float64(ops)
		values["round.delivered_per_op"] = float64(tr.delivered) / float64(ops)
	}
}

// peelPool is the benchmark's copy of the service's pooled instance for one
// shape: an honest complement, a Byzantine wrapper per node and one engine,
// reset and restarted per request — the same public calls, in the same
// order, that the service's fallback makes.
type peelPool struct {
	params core.Params
	honest []*relay.Node
	byz    []*adversary.Node
	nodes  []round.Node
	eng    *round.Engine
}

func newPeelPool(req *service.Request) (*peelPool, error) {
	p := &peelPool{params: core.Params{N: req.N, M: req.M, U: req.U, Sender: req.Sender}}
	if err := p.params.Validate(); err != nil {
		return nil, err
	}
	depth := p.params.Depth()
	for i := 0; i < req.N; i++ {
		nd, err := p.params.NewNode(types.NodeID(i), types.Default)
		if err != nil {
			return nil, err
		}
		bn, err := adversary.NewNode(req.N, depth, req.Sender, types.NodeID(i), types.Default, adversary.Honest{})
		if err != nil {
			return nil, err
		}
		p.honest = append(p.honest, nd)
		p.byz = append(p.byz, bn)
	}
	p.nodes = make([]round.Node, req.N)
	return p, nil
}

// run replays one armed request on the pool and returns the engine's
// result. specSampled mirrors the service's 1-in-8 spec sample.
func (p *peelPool) run(t *tracer, req *service.Request, specSampled bool) (*round.Result, error) {
	n := p.params.N
	t.begin(lNodesBuild) // pooled: the complement's Reset sweep stands in for building it
	for i := 0; i < n; i++ {
		p.honest[i].Reset(req.Value)
		p.nodes[i] = p.honest[i]
	}
	t.end()
	var faulty types.NodeSet
	for _, f := range req.Faults {
		t.begin(lAdvBuild)
		strat, err := f.Kind.Build(n, f.Value, f.Seed)
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin(lAdvWrap)
		bn := p.byz[int(f.Node)]
		bn.Reset(req.Value, strat)
		p.nodes[int(f.Node)] = bn
		t.end()
		faulty = faulty.Add(f.Node)
	}
	if p.eng == nil {
		t.begin(lEngineNew)
		eng, err := round.NewEngine(p.nodes, round.Config{Rounds: p.params.Depth()})
		t.end()
		if err != nil {
			return nil, err
		}
		p.eng = eng
	} else {
		t.begin(lRestart)
		err := p.eng.Restart(p.nodes)
		t.end()
		if err != nil {
			return nil, err
		}
	}
	if err := (timedDriver{t}).Drive(p.eng); err != nil {
		return nil, err
	}
	t.begin(lDecide)
	res := p.eng.Finalize()
	t.end()
	if specSampled {
		t.begin(lSpecCheck)
		v := spec.Check(spec.Execution{
			M: req.M, U: req.U, Sender: req.Sender, SenderValue: req.Value,
			Faulty: faulty, Decisions: res.Decisions,
		})
		t.end()
		if !v.OK {
			return nil, fmt.Errorf("pooled replay violates %s: %s", v.Condition, v.Reason)
		}
	}
	return res, nil
}

// requestSuite peels serving requests. Each request's root is an idle
// Client.Do round trip (through the router when routed); its replays are
// the four codec calls, a round trip straight to a backend (routed only),
// the in-process Slot.Do of the same request on the service behind the
// server, the Slot.Do of its fault-free twin (the hand-off alone), and — for
// a request the service did not decide on its fast path — the fallback on
// the benchmark's own pooled complement under the timed driver.
func requestSuite(name string, reqs []service.Request, routed, native, keep bool, openCount int, seed int64) (suiteOut, error) {
	out := suiteOut{name: name, native: native, values: map[string]float64{}, tr: newTracer(keep)}
	t := out.tr
	var routedLoad []service.Request
	if routed {
		routedLoad = reqs
	}
	h, err := startHarness(routedLoad)
	if err != nil {
		return out, err
	}
	defer h.stop()
	ctx := context.Background()
	client := h.clients[0]
	direct := client
	if routed {
		if direct, err = wire.Dial(h.backends[0].addr()); err != nil {
			return out, err
		}
		defer direct.Close()
	}
	svc := h.backends[0].svc
	slot := svc.NewSlot()

	// Plain loop: warms every pool, and is the untraced side of
	// trace.overhead_frac.
	cpu0 := cpuTime()
	for i := range reqs {
		if _, err := client.Do(ctx, reqs[i]); err != nil {
			return out, err
		}
		if routed {
			if _, err := direct.Do(ctx, reqs[i]); err != nil {
				return out, err
			}
		}
	}
	out.cpuPlain = float64(cpuTime()-cpu0) / float64(len(reqs))

	// Roots.
	cpu0 = cpuTime()
	e2e := make([]int64, len(reqs))
	var before, after service.Stats
	completedBefore := make([]uint64, len(h.backends))
	for b, be := range h.backends {
		st := be.svc.Stats()
		completedBefore[b] = st.Completed
		before = addStats(before, st)
	}
	var shedBefore uint64
	if routed {
		shedBefore = routerSheds(h.router)
	}
	for i := range reqs {
		t.op = i
		t.begin(lRoot)
		r, err := client.Do(ctx, reqs[i])
		e2e[i] = t.end()
		if err != nil || !replyOK(&reqs[i], r) || !decisionsOK(&reqs[i], r.Resp.Decisions) {
			out.failed++
		}
	}
	out.ops = len(reqs)
	var shareMax float64
	for b, be := range h.backends {
		st := be.svc.Stats()
		after = addStats(after, st)
		if share := float64(st.Completed-completedBefore[b]) / float64(len(reqs)); share > shareMax {
			shareMax = share
		}
	}
	if done := float64(after.Completed - before.Completed); done > 0 {
		out.values["service.fast_hit_frac"] = float64(after.FastHits-before.FastHits) / done
		out.values["service.degraded_frac"] = float64(after.Degraded-before.Degraded) / done
		out.values["service.rejected_frac"] = float64(after.Rejected-before.Rejected) / (done + float64(after.Rejected-before.Rejected))
	}
	if routed {
		out.values["fleet.backend_share_max"] = shareMax
		out.values["fleet.shed_frac"] = float64(routerSheds(h.router)-shedBefore) / float64(len(reqs))
	}

	// The round trip straight to a backend, in a tight loop of its own like
	// the roots, so that fleet.hop_ns is the difference of two like loops.
	viaDirect := e2e
	if routed {
		viaDirect = make([]int64, len(reqs))
		for i := range reqs {
			t.op = i
			t.begin(lDirect)
			_, err := direct.Do(ctx, reqs[i])
			viaDirect[i] = t.end()
			if err != nil {
				return out, err
			}
		}
	}

	// Replays.
	type poolKey struct {
		shape
		sender types.NodeID
	}
	pools := map[poolKey]*peelPool{}
	var reqBuf, respBuf []byte
	var scratch []service.FaultSpec
	var frameBytes, fallbacks, handoffs int
	var fallbackNs, handoffNs int64
	var sockNs, hopNs [2]int64 // by operation parity
	var partsOdd, e2eOdd int64
	var flow traffic
	for i := range reqs {
		req := &reqs[i]
		t.op = i
		t.begin(lEncodeReq)
		reqBuf, err = wire.AppendRequest(reqBuf[:0], uint64(i), *req)
		t.end()
		if err != nil {
			return out, err
		}
		t.begin(lDecodeReq)
		_, _, _, _, scratch, err = wire.DecodeAnyRequestInto(reqBuf[4:], scratch)
		t.end()
		if err != nil {
			return out, err
		}
		dDirect := viaDirect[i]
		fastBefore := svc.Stats().FastHits
		t.begin(lSlotDo)
		resp, err := slot.Do(ctx, *req)
		dSlot := t.end()
		if err != nil {
			return out, err
		}
		fast := svc.Stats().FastHits > fastBefore
		t.begin(lEncodeResp)
		respBuf, err = wire.AppendResponse(respBuf[:0], uint64(i), wire.StatusOK, resp, "")
		t.end()
		if err != nil {
			return out, err
		}
		t.begin(lDecodeResp)
		_, _, _, _, err = wire.DecodeResponse(respBuf[4:])
		t.end()
		if err != nil {
			return out, err
		}
		frameBytes += len(reqBuf) + len(respBuf)

		parts := dSlot
		if len(req.Faults) == 0 {
			handoffNs += dSlot
			handoffs++
		} else {
			twin := *req
			twin.Faults = nil
			t.begin(lHandoff)
			_, err = slot.Do(ctx, twin)
			dTwin := t.end()
			if err != nil {
				return out, err
			}
			handoffNs += dTwin
			handoffs++
			if !fast {
				fallbackNs += dSlot - dTwin
				fallbacks++
				k := poolKey{shape{req.N, req.M, req.U}, req.Sender}
				if pools[k] == nil {
					if pools[k], err = newPeelPool(req); err != nil {
						return out, err
					}
				}
				topBefore := t.now()
				res, err := pools[k].run(t, req, fallbacks%8 == 0)
				if err != nil {
					return out, err
				}
				flow.add(res)
				parts = dTwin + (t.now() - topBefore)
			}
		}
		sockNs[i&1] += dDirect - dSlot
		hopNs[i&1] += e2e[i] - dDirect
		if i&1 == 1 {
			partsOdd += parts
			e2eOdd += e2e[i]
		}
	}
	out.cpuTraced = float64(cpuTime()-cpu0) / float64(len(reqs))

	n := len(reqs)
	even, odd := (n+1)/2, n/2
	if odd > 0 && even > 0 {
		out.e2e = float64(e2eOdd)
		out.layers = float64(partsOdd) + float64(odd)*float64(sockNs[0]+hopNs[0])/float64(even)
	}
	for _, l := range []layerID{lEncodeReq, lDecodeReq, lEncodeResp, lDecodeResp} {
		out.perOp(l, n)
	}
	out.values["wire.frame_bytes_per_op"] = float64(frameBytes) / float64(n)
	out.values["wire.socket_ns"] = float64(sockNs[0]+sockNs[1]) / float64(n)
	if handoffs > 0 {
		out.values["service.handoff_ns"] = float64(handoffNs) / float64(handoffs)
	}
	if fallbacks > 0 {
		out.values["service.execute_fallback_ns"] = float64(fallbackNs) / float64(fallbacks)
		for _, l := range []layerID{lNodesBuild, lAdvBuild, lAdvWrap, lRestart, lDeliver, lStep, lCollect, lFinish, lDecide, lSpecCheck} {
			out.perOp(l, n)
		}
		flow.into(out.values, n)
	}

	// Allocation of the service path alone: an in-process Slot.Do loop.
	m := startMeter()
	for i := range reqs {
		if _, err := slot.Do(ctx, reqs[i]); err != nil {
			return out, err
		}
	}
	var p pass
	m.stop(&p)
	out.values["service.alloc_bytes_per_op"] = float64(p.alloc) / float64(n)

	if routed {
		out.values["fleet.hop_ns"] = float64(hopNs[0]+hopNs[1]) / float64(n)
		fleetProbes(out.values, reqs, h)
		if err := openSection(&out, h, openCount, seed); err != nil {
			return out, err
		}
	}
	return out, nil
}

func addStats(a, b service.Stats) service.Stats {
	a.Completed += b.Completed
	a.Rejected += b.Rejected
	a.Degraded += b.Degraded
	a.FastHits += b.FastHits
	return a
}

// routerSheds is the router's count of requests it answered itself: quota
// sheds and requests with no backend to take them.
func routerSheds(rt *fleet.Router) uint64 {
	c := rt.Telemetry().Counters
	return c["fleet_shed_quota_total"] + c["fleet_shed_unavailable_total"]
}

// fleetProbes times the router's placement steps stand-alone, on the same
// requests: the shape hash, the ring walk over the same two members, and
// the admission check of an unlimited tenant.
func fleetProbes(values map[string]float64, reqs []service.Request, h *harness) {
	ring := fleet.NewRing(0)
	for _, b := range h.backends {
		ring.Add(b.addr())
	}
	adm := fleet.NewAdmission()
	const reps = 16
	n := float64(reps * len(reqs))
	var sink uint64
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range reqs {
			sink += fleet.ShapeKey(reqs[i])
		}
	}
	values["fleet.shape_key_ns"] = float64(time.Since(t0)) / n
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for i := range reqs {
			ring.Walk(fleet.ShapeKey(reqs[i]), func(string) bool { return true })
		}
	}
	values["fleet.ring_lookup_ns"] = float64(time.Since(t0))/n - values["fleet.shape_key_ns"]
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for i := range reqs {
			adm.Admit(reqs[i].Tenant)
		}
	}
	values["fleet.admit_ns"] = float64(time.Since(t0)) / n
	probeSink = sink
}

// probeSink keeps probe results alive so the compiler cannot drop the calls.
var probeSink uint64

// openSection runs the open loop for a warm-up pass and a measured pass of
// count arrivals and reports how late the generator ran and how many
// requests missed the latency limit.
func openSection(out *suiteOut, h *harness, count int, seed int64) error {
	arrivals, span := genOpen(seed, count)
	var keep []sample
	openPass(h.clients, h.timers, arrivals, span, seed, &keep)
	p := openPass(h.clients, h.timers, arrivals, span, seed, &keep)
	for _, s := range keep {
		if !decisionsOK(s.req, s.dec) {
			p.failed++
		}
	}
	sortNs(p.late)
	out.values["gen.late_p99_us"] = quantileNs(p.late, 0.99) / 1e3
	out.values["slo_miss_frac"] = float64(p.slow+p.failed) / float64(len(arrivals))
	out.ops += len(arrivals)
	out.failed += p.failed
	return nil
}

// scenarioSuite peels synchronous chaos scenarios. The root is the real
// Scenario.Run; the replay assembles the same run from the layers' public
// functions — strategies, a fresh complement, Byzantine wrappers, the
// topology analysis and channel, the injector chain, a new engine — and
// drives it with the timed driver and timed channels.
func scenarioSuite(scs []chaos.Scenario, native, keep bool) (suiteOut, error) {
	out := suiteOut{name: "scenarios", native: native, values: map[string]float64{}, tr: newTracer(keep)}
	t := out.tr
	cpu0 := cpuTime()
	for i := range scs {
		if _, err := runScenario(scs[i]); err != nil {
			return out, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	out.cpuPlain = float64(cpuTime()-cpu0) / float64(len(scs))

	cpu0 = cpuTime()
	var overhead [2]int64 // Scenario.Run − peeled parts, by operation parity
	var partsOdd, e2eOdd int64
	var flow traffic
	for i := range scs {
		sc := scs[i]
		t.op = i
		t.begin(lRoot)
		ref, err := sc.Run()
		e2e := t.end()
		out.ops++
		if err != nil || ref.ClassValue() == chaos.Violated || !ref.ExpectationMet {
			out.failed++
			continue
		}
		start := t.now()
		res, err := replayScenario(t, sc)
		parts := t.now() - start
		if err != nil {
			return out, fmt.Errorf("scenario %d replay: %w", i, err)
		}
		if res.Messages != ref.Messages || res.Delivered != ref.Delivered {
			return out, fmt.Errorf("scenario %d replay diverged: %d/%d messages, %d/%d delivered",
				i, res.Messages, ref.Messages, res.Delivered, ref.Delivered)
		}
		flow.add(res)
		overhead[i&1] += e2e - parts
		if i&1 == 1 {
			partsOdd += parts
			e2eOdd += e2e
		}
	}
	n := len(scs)
	out.cpuTraced = float64(cpuTime()-cpu0) / float64(n)
	even, odd := (n+1)/2, n/2
	if odd > 0 {
		out.e2e = float64(e2eOdd)
		out.layers = float64(partsOdd) + float64(odd)*float64(overhead[0])/float64(even)
	}
	for _, l := range []layerID{lAdvBuild, lNodesBuild, lAdvWrap, lTopoBuild, lEngineNew,
		lDeliver, lInjectors, lTransport, lRouted, lStep, lCollect, lFinish, lDecide, lSpecCheck} {
		out.perOp(l, n)
	}
	out.values["chaos.scenario_overhead_ns"] = float64(overhead[0]+overhead[1]) / float64(n)
	flow.into(out.values, n)
	return out, nil
}

// replayScenario is the peeled form of one synchronous scenario.
func replayScenario(t *tracer, sc chaos.Scenario) (*round.Result, error) {
	p := core.Params{N: sc.N, M: sc.M, U: sc.U, Sender: sc.Sender}
	depth := p.Depth()
	strategies := make(map[types.NodeID]adversary.Strategy, len(sc.Faults))
	t.begin(lAdvBuild)
	for _, f := range sc.Faults {
		s, err := f.Kind.Build(sc.N, f.Value, f.Seed)
		if err != nil {
			t.end()
			return nil, err
		}
		strategies[f.Node] = s
	}
	t.end()
	t.begin(lNodesBuild)
	nodes, err := p.Nodes(sc.SenderValue)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin(lAdvWrap)
	err = adversary.Wrap(nodes, sc.N, depth, sc.Sender, sc.SenderValue, strategies)
	t.end()
	if err != nil {
		return nil, err
	}
	var channel round.Channel
	var counters chaos.Counters
	var inj round.Expander
	if len(sc.Injectors) > 0 {
		chain, err := chaos.NewChannel(sc.Injectors, sc.Faulty(), sc.Seed, &counters)
		if err != nil {
			return nil, err
		}
		inj = timedExpander{chain, t, lInjectors}
		channel = inj
	}
	if sc.Topology != nil {
		t.begin(lTopoBuild)
		_, err := sc.Topology.Report(sc.N, sc.M, sc.U, sc.F())
		var topo chaos.TopoChannel
		if err == nil {
			topo, err = sc.Topology.NewChannel(sc.N, sc.M, sc.U, sc.Faults, sc.Faulty())
		}
		t.end()
		if err != nil {
			return nil, err
		}
		l := lTransport
		if sc.Topology.Mode == chaos.TopoModeRouted {
			l = lRouted
		}
		channel = chaos.ComposeEgress(inj, timedChannel{topo, t, l})
	}
	t.begin(lEngineNew)
	eng, err := round.NewEngine(nodes, round.Config{Rounds: depth, Channel: channel})
	t.end()
	if err != nil {
		return nil, err
	}
	if err := (timedDriver{t}).Drive(eng); err != nil {
		return nil, err
	}
	t.begin(lDecide)
	res := eng.Finalize()
	t.end()
	t.begin(lSpecCheck)
	spec.Check(spec.Execution{
		M: sc.M, U: sc.U, Sender: sc.Sender, SenderValue: sc.SenderValue,
		Faulty: sc.Faulty(), Decisions: res.Decisions,
	})
	t.end()
	return res, nil
}

// asyncSuite peels async runs. The root is the real run; the replay runs
// the same nodes under the same seeded policy with every node call a span,
// so RunAsync's self time is the scheduler's. ABA runs and fault-free
// A-Cast scenarios are replayed; an A-Cast scenario with Byzantine nodes
// has a root only, because the chaos engine's Byzantine async wrapper is
// not public.
func asyncSuite(runs []asyncRun, native, keep bool) (suiteOut, error) {
	out := suiteOut{name: "async", native: native, values: map[string]float64{}, tr: newTracer(keep)}
	t := out.tr
	cpu0 := cpuTime()
	for i := range runs {
		if _, err := runAsyncOp(runs[i]); err != nil {
			return out, fmt.Errorf("async run %d: %w", i, err)
		}
	}
	out.cpuPlain = float64(cpuTime()-cpu0) / float64(len(runs))

	cpu0 = cpuTime()
	var acasts, abas, replayed, deliveries, abaRounds int
	var echo, ready, cert uint64
	var parts, e2e int64
	for i := range runs {
		run := runs[i]
		t.op = i
		out.ops++
		if run.ACast != nil {
			acasts++
			t.begin(lRoot)
			ref, err := run.ACast.Run()
			d := t.end()
			if err != nil || !ref.ExpectationMet || ref.Async == nil || ref.Async.SafetyViolations > 0 {
				out.failed++
				continue
			}
			deliveries += ref.Delivered
			echo += ref.Async.EchoTotal
			ready += ref.Async.ReadyTotal
			cert += ref.Async.CertTotal
			if len(run.ACast.Faults) > 0 {
				continue
			}
			start := t.now()
			res, err := replayACast(t, *run.ACast)
			if err != nil {
				return out, fmt.Errorf("async run %d replay: %w", i, err)
			}
			if res.Delivered != ref.Delivered {
				return out, fmt.Errorf("async run %d replay diverged: %d/%d delivered", i, res.Delivered, ref.Delivered)
			}
			parts += t.now() - start
			e2e += d
			replayed++
			continue
		}
		abas++
		t.begin(lRoot)
		ref, err := runABA(run.ABA, nil)
		d := t.end()
		if err != nil {
			out.failed++
			continue
		}
		deliveries += ref.Delivered
		start := t.now()
		maxRound := 0
		t.begin(lAsyncSched)
		res, err := runABA(run.ABA, func(nodes []round.AsyncNode, cfg *round.AsyncConfig) {
			for j := range nodes {
				nodes[j] = timedAsyncNode{nodes[j], t, lABAOn}
			}
			cfg.Trace = func(m types.Message) {
				if r := acast.ABARound(m.Round); r > maxRound {
					maxRound = r
				}
			}
		})
		t.end()
		if err != nil {
			return out, fmt.Errorf("async run %d replay: %w", i, err)
		}
		if res.Delivered != ref.Delivered {
			return out, fmt.Errorf("async run %d replay diverged: %d/%d delivered", i, res.Delivered, ref.Delivered)
		}
		abaRounds += maxRound
		parts += t.now() - start
		e2e += d
		replayed++
	}
	n := len(runs)
	out.cpuTraced = float64(cpuTime()-cpu0) / float64(n)
	out.e2e, out.layers = float64(e2e), float64(parts)
	for _, l := range []layerID{lAsyncSched, lACastStart, lACastOn, lABAOn} {
		out.perOp(l, replayed)
	}
	out.values["round.async_deliveries_per_op"] = float64(deliveries) / float64(n)
	if acasts > 0 {
		out.values["acast.echo_per_op"] = float64(echo) / float64(acasts)
		out.values["acast.ready_per_op"] = float64(ready) / float64(acasts)
		out.values["acast.cert_per_op"] = float64(cert) / float64(acasts)
	}
	if abas > 0 {
		out.values["aba.rounds_per_op"] = float64(abaRounds) / float64(abas)
	}
	return out, nil
}

// replayACast is the peeled form of one fault-free A-Cast scenario.
func replayACast(t *tracer, sc chaos.Scenario) (*round.AsyncResult, error) {
	policy, err := round.ParsePolicy(sc.Sched, sc.Seed)
	if err != nil {
		return nil, err
	}
	t.begin(lAsyncSched)
	defer t.end()
	p := acast.Params{N: sc.N, F: (sc.N - 1) / 3}
	counters := obs.NewCounterSet(acast.CounterNames...)
	nodes := make([]round.AsyncNode, sc.N)
	var honest types.NodeSet
	t.begin(lACastStart)
	for i := range nodes {
		id := types.NodeID(i)
		nodes[i] = timedAsyncNode{acast.NewNode(acast.Config{
			ID: id, Params: p, Broadcasters: types.NewNodeSet(sc.Sender),
			Input: sc.SenderValue, Counters: counters,
		}), t, lACastOn}
		honest = honest.Add(id)
	}
	t.end()
	return round.RunAsync(nodes, round.AsyncConfig{Policy: policy, WaitFor: honest})
}

// probes are the stand-alone replays of layers that cannot be separated
// from their callers from outside: eig and vote at the given shape's tree
// and vector widths (they explain relay.step_ns and relay.finish_ns and are
// never added to them), and the obs primitives every layer pays for.
func probes(sh shape) (suiteOut, error) {
	out := suiteOut{name: "probes", native: true, values: map[string]float64{}}
	p := core.Params{N: sh.n, M: sh.m, U: sh.u}
	if err := p.Validate(); err != nil {
		return out, err
	}
	const self = types.NodeID(1)
	tree, err := eig.New(sh.n, p.Depth(), p.Sender)
	if err != nil {
		return out, err
	}
	var paths []types.Path
	for l := 1; l <= p.Depth(); l++ {
		tree.ForEachPath(l, self, func(path types.Path) bool {
			paths = append(paths, path.Clone())
			return true
		})
	}
	reps := 1 + 200000/len(paths)
	fill := func(mixed bool) error {
		for i, path := range paths {
			v := types.Value(7)
			if mixed && i%3 == 0 {
				v = 8
			}
			if err := tree.Set(path, v); err != nil {
				return err
			}
		}
		return nil
	}
	var setNs, resetNs, resolveNs time.Duration
	rule := p.Rule()
	var sink types.Value
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fill(true); err != nil {
			return out, err
		}
		t1 := time.Now()
		sink += tree.Resolve(self, rule)
		t2 := time.Now()
		tree.Reset()
		setNs, resolveNs, resetNs = setNs+t1.Sub(t0), resolveNs+t2.Sub(t1), resetNs+time.Since(t2)
	}
	out.values["eig.set_ns"] = float64(setNs) / float64(reps*len(paths))
	out.values["eig.resolve_ns"] = float64(resolveNs) / float64(reps)
	out.values["eig.reset_ns"] = float64(resetNs) / float64(reps)
	out.values["eig.paths_per_op"] = float64(len(paths))
	if err := fill(false); err != nil {
		return out, err
	}
	const calls = 1 << 16
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		v, ok := tree.FastDecision(self)
		if !ok {
			return out, fmt.Errorf("FastDecision refused a unanimous complete tree")
		}
		sink += v
	}
	out.values["eig.fast_decision_ns"] = float64(time.Since(t0)) / calls

	// VOTE(n_σ−1−m, n_σ−1) at every internal level of the shape's tree.
	var vecs [][]types.Value
	for l := 1; l < p.Depth(); l++ {
		vec := make([]types.Value, sh.n-l)
		for i := range vec {
			vec[i] = 7
		}
		vec[0] = 8
		vecs = append(vecs, vec)
	}
	if len(vecs) == 0 {
		vecs = append(vecs, []types.Value{7, 8, 7})
	}
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		vec := vecs[i%len(vecs)]
		sink += vote.Vote(len(vec)-sh.m, vec)
	}
	out.values["vote.vote_ns"] = float64(time.Since(t0)) / calls
	probeSink += uint64(sink)

	hist := obs.NewHistogram()
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		hist.Observe(time.Duration(i) * 64)
	}
	out.values["obs.hist_observe_ns"] = float64(time.Since(t0)) / calls
	ring := obs.NewTracer(1024)
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		ring.Emit(obs.Event{Kind: obs.EvVerdict, Round: int32(i)})
	}
	out.values["obs.tracer_emit_ns"] = float64(time.Since(t0)) / calls
	return out, nil
}
