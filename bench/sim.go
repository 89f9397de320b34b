package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"degradable/internal/acast"
	"degradable/internal/chaos"
	"degradable/internal/round"
	"degradable/internal/types"
)

// The simulator workloads are what library and campaign users run: one
// goroutine looping over pre-generated scenarios or async runs, with zero
// wire or service work. Every run builds a fresh node complement, the
// opposite of the service's pooled Restart path.

// simulated is the workload value of sim_sync and sim_async.
type simulated struct {
	name  string
	seed  int64
	scale float64
	in    inputs
	// ref is each operation's outcome digest from the warm-up pass. The
	// inputs are seeded and the engines deterministic, so a measured pass
	// whose digests differ has computed something else.
	ref []uint64
}

func (w *simulated) setup() error {
	var err error
	if w.in, err = genInputs(w.name, w.seed, w.scale); err != nil {
		return err
	}
	n := len(w.in.sync) + len(w.in.async)
	w.ref = make([]uint64, n)
	for i := 0; i < n; i++ {
		d, err := w.run(i)
		if err != nil {
			return fmt.Errorf("%s: warm-up operation %d: %w", w.name, i, err)
		}
		w.ref[i] = d
	}
	return nil
}

// run executes operation i and returns its outcome digest; a failed
// operation (violated scenario, missed expectation, async safety breach)
// is an error.
func (w *simulated) run(i int) (uint64, error) {
	if w.name == "sim_sync" {
		return runScenario(w.in.sync[i])
	}
	return runAsyncOp(w.in.async[i])
}

// runAsyncOp runs one sim_async operation and returns its outcome digest.
func runAsyncOp(r asyncRun) (uint64, error) {
	if r.ACast != nil {
		return runScenario(*r.ACast)
	}
	res, err := runABA(r.ABA, nil)
	if err != nil {
		return 0, err
	}
	d := uint64(res.Messages)<<32 ^ uint64(res.Delivered)<<8
	for id, v := range res.Decisions {
		d ^= uint64(v+1) << (uint(id) % 8)
	}
	return d, nil
}

func (w *simulated) pass() pass {
	n := len(w.ref)
	p := pass{lat: make([]int64, 0, n)}
	m := startMeter()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d, err := w.run(i)
		lat := time.Since(t0)
		if err != nil || d != w.ref[i] {
			p.failed++
			continue
		}
		p.lat = append(p.lat, int64(lat))
	}
	m.stop(&p)
	p.ops = len(p.lat)
	return p
}

func (w *simulated) verify() (checked, failed int) { return 0, 0 }
func (w *simulated) teardown() error               { return nil }

// runScenario runs one chaos scenario (synchronous or A-Cast) and judges it
// the way a campaign does.
func runScenario(sc chaos.Scenario) (uint64, error) {
	out, err := sc.Run()
	if err != nil {
		return 0, err
	}
	if out.ClassValue() == chaos.Violated || !out.ExpectationMet {
		return 0, fmt.Errorf("scenario %s: %s", out.Class, out.ExpectReason)
	}
	if out.Async != nil && out.Async.SafetyViolations > 0 {
		return 0, fmt.Errorf("async safety violated %d times", out.Async.SafetyViolations)
	}
	d := uint64(out.ClassValue())<<56 ^ uint64(out.Messages)<<28 ^ uint64(out.Delivered)
	if out.OK {
		d ^= 1 << 60
	}
	if out.Graceful {
		d ^= 1 << 61
	}
	return d, nil
}

// abaNodes builds the fault-free node complement of one ABA run.
func abaNodes(run *abaRun) []round.AsyncNode {
	p := acast.Params{N: run.N, F: (run.N - 1) / 3}
	nodes := make([]round.AsyncNode, run.N)
	for i := range nodes {
		nodes[i] = acast.NewABA(types.NodeID(i), p, run.Inputs[i], run.Coin)
	}
	return nodes
}

// abaConfig is the async run configuration of one ABA run. A starved node
// can never decide, so it is left out of the set the run waits for.
func abaConfig(run *abaRun) (round.AsyncConfig, error) {
	policy, err := round.ParsePolicy(run.Sched, run.Seed)
	if err != nil {
		return round.AsyncConfig{}, err
	}
	cfg := round.AsyncConfig{Policy: policy}
	if name, arg, ok := strings.Cut(run.Sched, ":"); ok && name == round.SchedStarve {
		target, err := strconv.Atoi(arg)
		if err != nil {
			return cfg, err
		}
		for i := 0; i < run.N; i++ {
			if i != target {
				cfg.WaitFor = cfg.WaitFor.Add(types.NodeID(i))
			}
		}
	}
	return cfg, nil
}

// runABA runs one binary agreement and checks safety: every decision is a
// bit, all decisions agree, and the decided bit was some node's input.
// Termination is a verdict under an adversarial scheduler, never required.
// wrap, when non-nil, decorates the run before it starts (the traced pass
// uses it to time nodes).
func runABA(run *abaRun, wrap func([]round.AsyncNode, *round.AsyncConfig)) (*round.AsyncResult, error) {
	nodes := abaNodes(run)
	cfg, err := abaConfig(run)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		wrap(nodes, &cfg)
	}
	res, err := round.RunAsync(nodes, cfg)
	if err != nil {
		return nil, err
	}
	var seen [2]bool
	for _, in := range run.Inputs {
		seen[in] = true
	}
	first := types.Value(-1)
	for id, v := range res.Decisions {
		switch {
		case v != 0 && v != 1:
			return nil, fmt.Errorf("aba: node %d decided non-bit %v", int(id), v)
		case first == -1:
			first = v
		case v != first:
			return nil, fmt.Errorf("aba: agreement violated: %v", res.Decisions)
		}
	}
	if first != -1 && !seen[first] {
		return nil, fmt.Errorf("aba: decided %v, no node's input", first)
	}
	return res, nil
}
