package service

import (
	"degradable/internal/core"
	"degradable/internal/obs"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/types"
	"degradable/internal/vote"
)

// pool is one shard's per-shape state: the warm instance the full path runs
// on and the sender probe's receipt vector. A warm pool executes an instance
// with zero allocations.
type pool struct {
	inst *runner.Warm
	// recv is the sender probe's round-1 receipt vector: one slot per
	// non-sender receiver, absences mapped to V_d per §4.
	recv []types.Value
}

// newPool builds the reusable instance for one shape. The shape was
// validated at admission, so construction cannot fail on a well-formed
// request; any residual error is returned per-request by run.
func newPool(k core.Params) (*pool, error) {
	inst, err := runner.NewWarm(k)
	if err != nil {
		return nil, err
	}
	return &pool{inst: inst, recv: make([]types.Value, k.N-1)}, nil
}

// runOne executes one task on the shard's pooled instance for its shape,
// creating the pool on first use.
func (sh *shard) runOne(t *task) (Response, error) {
	k := t.req.shape()
	p, ok := sh.pools[k]
	if !ok {
		var err error
		p, err = newPool(k)
		if err != nil {
			return Response{}, err
		}
		sh.pools[k] = p
	}
	return p.run(t, sh)
}

// decideForced answers a fault-free request on the submitting goroutine.
// With no armed fault every node is honest, so the sender distributes
// req.Value, every tree is unanimous and complete, and every node — sender
// included — decides req.Value: D.1 forces the whole vector, and there is no
// exchange to run and nothing to queue. The outcome is on t.done when it
// returns.
func (sh *shard) decideForced(t *task) {
	sh.stats.Inc(statAccepted)
	dec := t.decisions()
	for i := range dec {
		dec[i] = t.req.Value
	}
	t.done <- Outcome{Resp: sh.complete(t, true)}
}

// decisions returns the task's decision buffer sized to the request.
func (t *task) decisions() []types.Value {
	if cap(t.dec) < t.req.N {
		t.dec = make([]types.Value, t.req.N)
	}
	t.dec = t.dec[:t.req.N]
	return t.dec
}

// conditionStat maps a selected condition to its counter index.
func conditionStat(condition string) int {
	switch condition {
	case "D.1":
		return statCondD1
	case "D.2":
		return statCondD2
	case "D.3":
		return statCondD3
	case "D.4":
		return statCondD4
	default:
		return statCondNone
	}
}

// run executes one armed instance on the pooled complement into the
// task's decision buffer and classifies it.
//
// The sender probe decides without materializing the EIG exchange when only
// the sender is armed: the sender is the only node that ever deviates (a
// faulty sender has no relay schedule — every valid path starts with it, so
// its outbox past round 1 is empty), which means the entire run is
// determined by its round-1 egress. Probe exactly that egress; if the
// receipt vector (absences mapped to V_d per §4) is unanimous, every
// receiver's tree ends unanimous-and-complete (or all-default) and resolves
// to the common value w: receivers decide w, the faulty sender reports V_d.
//
// Any other configuration — a non-sender fault that can still act in rounds
// ≥ 2, or an equivocating sender — falls back to the full VOTE path, which
// also serves as the differential oracle in the equivalence tests. The
// fallback re-arms the strategy from the request (every kind is
// deterministic per seed, and a random one restarts its stream), so a
// probed-then-fallen-back run is byte-identical to one that never probed.
func (p *pool) run(t *task, sh *shard) (Response, error) {
	req := &t.req
	dec := t.decisions()
	fast := len(req.Faults) == 1 && req.Faults[0].Node == req.Sender && p.probeSender(req, dec)
	if !fast {
		if err := p.runFull(req, dec); err != nil {
			return Response{}, err
		}
	}
	return sh.complete(t, fast), nil
}

// complete classifies the decided task into its Response and the shard's
// counters; fast reports a decision made without the full VOTE path. It is
// the one classification for the shard and for a submitting goroutine, so
// it touches only atomics and the task.
func (sh *shard) complete(t *task, fast bool) Response {
	if fast {
		sh.stats.Inc(statFastHit)
	} else {
		sh.stats.Inc(statFastFallback)
	}
	req, faulty := &t.req, t.faulty
	deciders, vdDeciders, degraded := receiverTally(t.dec, req.Sender, faulty)
	_, cond := spec.Select(req.M, req.U, len(req.Faults), faulty.Contains(req.Sender))
	sh.stats.Add(statDeciders, uint64(deciders))
	sh.stats.Add(statVdDeciders, uint64(vdDeciders))
	sh.stats.Inc(statCompleted)
	if degraded {
		sh.stats.Inc(statDegraded)
	}
	sh.stats.Inc(conditionStat(cond))
	resp := Response{
		Decisions: t.dec,
		Condition: cond,
		Degraded:  degraded,
		OK:        true,
	}

	// Sampling mode: every SpecSample-th instance per shard goes through
	// the full executable spec, so serving never drifts from D.1–D.4
	// unnoticed — fast-path decisions included.
	if rate := sh.svc.cfg.SpecSample; rate > 0 && sh.completions.Add(1)%uint64(rate) == 0 {
		if t.decMap == nil {
			t.decMap = make(map[types.NodeID]types.Value, req.N)
		} else {
			clear(t.decMap)
		}
		for i, d := range t.dec {
			t.decMap[types.NodeID(i)] = d
		}
		v := spec.Check(spec.Execution{
			M: req.M, U: req.U,
			Sender:      req.Sender,
			SenderValue: req.Value,
			Faulty:      faulty,
			Decisions:   t.decMap,
		})
		resp.Checked = true
		resp.OK = v.OK
		resp.Graceful = v.Graceful
		resp.Reason = v.Reason
		sh.stats.Inc(statSpecChecked)
		if !v.OK {
			sh.stats.Inc(statSpecViolations)
		}
		if v.Condition != "none" { // the floor is only promised for f ≤ u
			sh.svc.floor.Observe(int64(v.Margin))
		}
		if sink := sh.svc.cfg.Sink; sink != nil {
			sink.Emit(obs.VerdictEvent(v.Condition, v.OK, v.Graceful))
		}
	}
	return resp
}

// probeSender runs the armed sender's round-1 egress and, when the receipt
// vector is unanimous, fills dec with the forced decisions and reports a
// fast-path hit. A non-unanimous vector (equivocation or partial omission)
// leaves dec untouched and sends the caller down the full path, which
// re-arms the node with a freshly built strategy.
func (p *pool) probeSender(req *Request, dec []types.Value) bool {
	f := req.Faults[0]
	n := req.N
	strat, err := p.inst.Strategy(0, f)
	if err != nil {
		return false // the full path surfaces the same error to the caller
	}
	bn, err := p.inst.Byzantine(f.Node)
	if err != nil {
		return false
	}
	bn.Reset(req.Value, strat)

	// Receipt vector: one slot per non-sender receiver in ID order,
	// initialized to V_d so omissions read as absence per §4.
	recv := p.recv[:n-1]
	for i := range recv {
		recv[i] = types.Default
	}
	for _, m := range bn.Step(1, nil) {
		j := int(m.To)
		if j < 0 || j >= n || m.To == req.Sender || len(m.Path) != 1 {
			continue
		}
		if m.To > req.Sender {
			j--
		}
		recv[j] = m.Value
	}
	w, uni := vote.UnanimousSlots(recv)
	if !uni {
		return false
	}
	for i := range dec {
		dec[i] = w
	}
	dec[int(req.Sender)] = types.Default // a faulty node's decision is V_d
	return true
}

// runFull executes the instance with the request's fault set armed on the
// warm complement under the reference schedule, reading each node's
// decision into dec.
func (p *pool) runFull(req *Request, dec []types.Value) error {
	res, err := p.inst.Run(req.Value, req.Faults, nil, nil)
	if err != nil {
		return err
	}
	for i := range dec {
		dec[i] = res.Decisions[types.NodeID(i)]
	}
	return nil
}

// receiverTally classifies the fault-free receivers' decisions in one
// allocation-free pass: how many decided at all, how many fell back to V_d,
// and whether degradation manifested (some fault-free receiver decided V_d,
// or the fault-free receivers split).
func receiverTally(decisions []types.Value, sender types.NodeID, faulty types.NodeSet) (deciders, vdDeciders int, degraded bool) {
	first := true
	var ref types.Value
	for i, d := range decisions {
		id := types.NodeID(i)
		if id == sender || faulty.Contains(id) {
			continue
		}
		deciders++
		if d == types.Default {
			vdDeciders++
			degraded = true
			continue
		}
		if first {
			ref, first = d, false
		} else if d != ref {
			degraded = true
		}
	}
	return deciders, vdDeciders, degraded
}
