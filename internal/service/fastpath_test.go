package service

import (
	"context"
	"sync"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// runOracle executes req on a freshly built complement whose honest nodes
// have the tree-level fast resolve DISABLED — the pristine full VOTE path,
// with no pooling, no outbox templates, and no optimistic shortcut
// anywhere. It is the ground truth the fast-path service must match
// byte for byte.
func runOracle(tb testing.TB, req Request) []types.Value {
	tb.Helper()
	params := core.Params{N: req.N, M: req.M, U: req.U, Sender: req.Sender}
	depth := params.Depth()
	nodes := make([]round.Node, req.N)
	for i := 0; i < req.N; i++ {
		nd, err := relay.New(req.N, depth, req.Sender, types.NodeID(i), req.Value, params.Rule())
		if err != nil {
			tb.Fatalf("oracle node %d: %v", i, err)
		}
		nodes[i] = nd
	}
	for _, f := range req.Faults {
		strat, err := f.Strategy(req.N)
		if err != nil {
			tb.Fatalf("oracle strategy: %v", err)
		}
		bn, err := adversary.NewNode(req.N, depth, req.Sender, f.Node, req.Value, strat)
		if err != nil {
			tb.Fatalf("oracle byzantine node: %v", err)
		}
		nodes[int(f.Node)] = bn
	}
	if _, err := round.Run(nodes, round.Config{Rounds: depth}, round.Reference{}); err != nil {
		tb.Fatalf("oracle run: %v", err)
	}
	dec := make([]types.Value, req.N)
	for i, nd := range nodes {
		dec[i] = nd.Decide()
	}
	return dec
}

// verdictOf runs the executable spec over a decision vector.
func verdictOf(req Request, dec []types.Value) spec.Verdict {
	var faulty types.NodeSet
	for _, f := range req.Faults {
		faulty = faulty.Add(f.Node)
	}
	m := make(map[types.NodeID]types.Value, len(dec))
	for i, d := range dec {
		m[types.NodeID(i)] = d
	}
	return spec.Check(spec.Execution{
		M: req.M, U: req.U,
		Sender:      req.Sender,
		SenderValue: req.Value,
		Faulty:      faulty,
		Decisions:   m,
	})
}

// checkAgainstOracle runs req through svc and fails unless the decisions
// and the spec verdict are identical to the no-shortcut oracle's.
func checkAgainstOracle(tb testing.TB, svc *Service, req Request) {
	tb.Helper()
	want := runOracle(tb, req)
	resp, err := svc.Do(context.Background(), req)
	if err != nil {
		tb.Fatalf("%+v: %v", req, err)
	}
	if len(resp.Decisions) != req.N {
		tb.Fatalf("%+v: %d decisions, want %d", req, len(resp.Decisions), req.N)
	}
	for i, w := range want {
		if got := resp.Decisions[i]; got != w {
			tb.Errorf("%+v: node %d decided %s, oracle %s", req, i, got, w)
		}
	}
	wv := verdictOf(req, want)
	if resp.Checked && (resp.OK != wv.OK || resp.Graceful != wv.Graceful) {
		tb.Errorf("%+v: verdict OK=%v Graceful=%v, oracle OK=%v Graceful=%v (%s)",
			req, resp.OK, resp.Graceful, wv.OK, wv.Graceful, wv.Reason)
	}
}

// TestFastVsFullExhaustive is the equivalence matrix for the optimistic
// fast path: every feasible shape with N ≤ 6 (all of which exercise depths
// 1 and 2) plus a depth-3 shape, two sender positions each, against the
// fault sets the fast-path predicate dispatches on — fault-free, every
// single-node fault of every kind (sender faults probe; non-sender faults
// must fall back), and every two-node pair where u allows it. Decisions and
// spec verdicts must be identical to the no-shortcut oracle, and the matrix
// must drive both the hit and the fallback counters.
func TestFastVsFullExhaustive(t *testing.T) {
	svc := New(Config{Shards: 2, SpecSample: 1})
	defer svc.Close()

	kinds := []adversary.Kind{
		adversary.KindSilent, adversary.KindCrash, adversary.KindLie,
		adversary.KindTwoFaced, adversary.KindRandom,
	}

	type shape struct{ n, m, u int }
	var shapes []shape
	for n := 2; n <= 6; n++ {
		for m := 0; m <= n; m++ {
			for u := 1; u <= n; u++ {
				if (core.Params{N: n, M: m, U: u}).Validate() == nil {
					shapes = append(shapes, shape{n, m, u})
				}
			}
		}
	}
	shapes = append(shapes, shape{7, 2, 2}) // depth 3 (m+1 rounds)

	for _, sh := range shapes {
		for _, sender := range []types.NodeID{0, types.NodeID(sh.n - 1)} {
			cfgs := [][]adversary.FaultSpec{nil}
			for node := 0; node < sh.n; node++ {
				for _, k := range kinds {
					cfgs = append(cfgs, []adversary.FaultSpec{
						{Node: types.NodeID(node), Kind: k, Value: 99, Seed: 3}})
				}
			}
			if sh.u >= 2 {
				for a := 0; a < sh.n; a++ {
					for b := a + 1; b < sh.n; b++ {
						cfgs = append(cfgs, []adversary.FaultSpec{
							{Node: types.NodeID(a), Kind: adversary.KindTwoFaced, Value: 7},
							{Node: types.NodeID(b), Kind: adversary.KindLie, Value: 9}})
					}
				}
			}
			for ci, faults := range cfgs {
				req := Request{
					N: sh.n, M: sh.m, U: sh.u, Sender: sender,
					Value:  types.Value(42 + ci),
					Faults: faults,
				}
				checkAgainstOracle(t, svc, req)
			}
		}
	}

	st := svc.Stats()
	if st.FastHits == 0 || st.FastFallbacks == 0 {
		t.Errorf("matrix must exercise both paths: hits=%d fallbacks=%d",
			st.FastHits, st.FastFallbacks)
	}
	if st.SpecViolations != 0 {
		t.Fatalf("spec violations: %d", st.SpecViolations)
	}
}

// FuzzFastVsFull is the differential fuzzer over the same seam: arbitrary
// feasible shapes with up to two injected faults (f ≤ u), service decisions
// and spec verdicts against the no-shortcut oracle.
func FuzzFastVsFull(f *testing.F) {
	f.Add(uint8(7), uint8(1), uint8(2), uint8(0), int64(42), uint8(0), uint8(0), uint8(0), int64(0), int64(0), uint8(0), uint8(0), int64(0), int64(0))
	f.Add(uint8(7), uint8(1), uint8(2), uint8(0), int64(42), uint8(1), uint8(0), uint8(2), int64(99), int64(1), uint8(0), uint8(0), int64(0), int64(0))
	f.Add(uint8(5), uint8(1), uint8(2), uint8(2), int64(7), uint8(2), uint8(2), uint8(3), int64(88), int64(5), uint8(4), uint8(1), int64(77), int64(9))
	f.Add(uint8(2), uint8(0), uint8(1), uint8(0), int64(-3), uint8(1), uint8(0), uint8(1), int64(0), int64(2), uint8(0), uint8(0), int64(0), int64(0))
	f.Add(uint8(7), uint8(2), uint8(2), uint8(6), int64(11), uint8(2), uint8(6), uint8(4), int64(1), int64(3), uint8(1), uint8(2), int64(2), int64(4))

	svc := New(Config{SpecSample: 1})
	defer svc.Close()

	f.Fuzz(func(t *testing.T, n, m, u, sender uint8, value int64,
		nf, n1, k1 uint8, v1, s1 int64, n2, k2 uint8, v2, s2 int64) {
		params := core.Params{N: 2 + int(n%6), M: int(m % 3), U: 1 + int(u%4)}
		params.Sender = types.NodeID(int(sender) % params.N)
		if params.Validate() != nil {
			return
		}
		var faults []adversary.FaultSpec
		if count := int(nf % 3); count > 0 {
			faults = append(faults, adversary.FaultSpec{
				Node: types.NodeID(int(n1) % params.N), Kind: adversary.Kind(1 + k1%5),
				Value: types.Value(v1), Seed: s1,
			})
			node2 := types.NodeID(int(n2) % params.N)
			if count > 1 && params.U > 1 && node2 != faults[0].Node {
				faults = append(faults, adversary.FaultSpec{
					Node: node2, Kind: adversary.Kind(1 + k2%5),
					Value: types.Value(v2), Seed: s2,
				})
			}
		}
		req := Request{
			N: params.N, M: params.M, U: params.U, Sender: params.Sender,
			Value:  types.Value(value),
			Faults: faults,
		}
		if req.Validate() != nil {
			return
		}
		checkAgainstOracle(t, svc, req)
	})
}

// TestRandomSlotReuseIsInvisible holds a pool's re-seeded RandomLies to
// freshly built strategies: a stream of random-fault requests, where the
// same fault positions are armed again and again with new seeds, values and
// nodes, and with other kinds in between, must decide exactly what the
// oracle decides with a new RandomLie per request. Four slots drive the
// stream at once so the race detector sees the shards' pools under load.
func TestRandomSlotReuseIsInvisible(t *testing.T) {
	svc := New(Config{Shards: 2, SpecSample: 1})
	defer svc.Close()

	var reqs []Request
	for i := 0; i < 48; i++ {
		seed := int64(i*7919 - 100)
		node := types.NodeID(i % 7)
		req := Request{N: 7, M: 1, U: 2, Sender: types.NodeID(i % 2), Value: types.Value(40 + i%5),
			Faults: []adversary.FaultSpec{{Node: node, Kind: adversary.KindRandom, Value: types.Value(90 + i%3), Seed: seed}}}
		switch i % 4 {
		case 1: // a second random slot
			req.Faults = append(req.Faults, adversary.FaultSpec{Node: (node + 3) % 7, Kind: adversary.KindRandom, Value: 77, Seed: seed + 1})
		case 2: // the slot's node armed with another kind in between
			req.Faults[0].Kind = adversary.KindTwoFaced
		}
		reqs = append(reqs, req)
	}
	want := make([][]types.Value, len(reqs))
	for i, req := range reqs {
		want[i] = runOracle(t, req)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sl := svc.NewSlot()
			for pass := 0; pass < 3; pass++ {
				for k := range reqs {
					i := (k + w*11) % len(reqs)
					resp, err := sl.Do(context.Background(), reqs[i])
					if err != nil {
						t.Errorf("worker %d req %d: %v", w, i, err)
						return
					}
					for id, d := range want[i] {
						if resp.Decisions[id] != d {
							t.Errorf("worker %d pass %d req %d node %d: decided %s, fresh strategy decides %s",
								w, pass, i, id, resp.Decisions[id], d)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := svc.Stats(); st.SpecViolations != 0 {
		t.Fatalf("spec violations: %d", st.SpecViolations)
	}
}
