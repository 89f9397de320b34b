package acast

import (
	"fmt"
	"testing"

	"degradable/internal/round"
	"degradable/internal/types"
)

// fuzzParams decodes the fuzz corpus bytes into a small valid system.
func fuzzParams(nRaw, fRaw uint8) Params {
	n := 4 + int(nRaw)%4 // 4..7
	f := int(fRaw) % 2   // 0..1
	return Params{N: n, F: f}
}

// FuzzAsyncSchedulerDeterminism pins the asynchronous track's replay
// guarantee: the same seed, policy, and inputs produce a byte-identical
// delivery schedule and identical decisions, for both A-Cast and ABA,
// under every seeded policy family.
func FuzzAsyncSchedulerDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(1), uint8(1), uint8(2), uint8(0b1010))
	f.Add(int64(-7), uint8(3), uint8(1), uint8(1), uint8(0b0110))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, fRaw, polRaw, bits uint8) {
		p := fuzzParams(nRaw, fRaw)
		specs := []string{"fifo", "reorder", "delay:8", "adversarial", fmt.Sprintf("starve:%d", int(bits)%p.N)}
		spec := specs[int(polRaw)%len(specs)]

		runOnce := func(aba bool) (trace []types.Message, dec map[types.NodeID]types.Value) {
			pol, err := round.ParsePolicy(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []round.AsyncNode
			if aba {
				for i := 0; i < p.N; i++ {
					nodes = append(nodes, NewABA(types.NodeID(i), p, (bits>>i)&1, uint64(seed)+3))
				}
			} else {
				for i := 0; i < p.N; i++ {
					nodes = append(nodes, NewNode(Config{ID: types.NodeID(i), Params: p, Input: types.Value(bits)}))
				}
			}
			res, err := round.RunAsync(nodes, round.AsyncConfig{
				Policy: pol,
				Trace:  func(m types.Message) { trace = append(trace, m) },
			})
			if err != nil {
				t.Fatal(err)
			}
			return trace, res.Decisions
		}

		for _, aba := range []bool{false, true} {
			t1, d1 := runOnce(aba)
			t2, d2 := runOnce(aba)
			if len(t1) != len(t2) {
				t.Fatalf("aba=%v sched=%s seed=%d: schedule lengths differ: %d vs %d", aba, spec, seed, len(t1), len(t2))
			}
			for i := range t1 {
				if t1[i].String() != t2[i].String() {
					t.Fatalf("aba=%v sched=%s seed=%d: schedule diverged at delivery %d:\n %v\n %v", aba, spec, seed, i, t1[i], t2[i])
				}
			}
			if len(d1) != len(d2) {
				t.Fatalf("aba=%v sched=%s seed=%d: decision sets differ: %v vs %v", aba, spec, seed, d1, d2)
			}
			for id, v := range d1 {
				if d2[id] != v {
					t.Fatalf("aba=%v sched=%s seed=%d: node %d decided %v then %v", aba, spec, seed, id, v, d2[id])
				}
			}
		}
	})
}

// FuzzOutboxVsOracle holds the node-owned outbox to the slice-returning
// oracle (oracle_test.go) on drawn cells of the differential: system size up
// to 31, every policy family, every fault wrapper, both protocols. The
// delivery transcript and the result must be identical, nodes released
// mid-run or not.
func FuzzOutboxVsOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(3), uint8(3), uint8(0x80|faultTwoFaced))
	f.Add(int64(-7), uint8(27), uint8(4), uint8(faultRandom))
	f.Add(int64(1<<40+5), uint8(12), uint8(1), uint8(0x80|faultCrash))
	f.Add(int64(9), uint8(27), uint8(3), uint8(0x80|0x40|faultRandom))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, polRaw, faultRaw uint8) {
		n := 4 + int(nRaw)%28 // 4..31
		scheds := diffScheds(n, seed)
		diffCase{
			aba:     faultRaw&0x80 != 0,
			n:       n,
			sched:   scheds[int(polRaw)%len(scheds)],
			fault:   int(faultRaw&0x3f) % faultKinds,
			seed:    seed,
			release: faultRaw&0x40 != 0,
		}.check(t)
	})
}

// syncEchoNode is the synchronous counterpart of an all-broadcast A-Cast:
// every node broadcasts its value in round 1 and records the receipt
// vector at the final delivery.
type syncEchoNode struct {
	id       types.NodeID
	n        int
	value    types.Value
	receipts map[types.NodeID]types.Value
}

func (s *syncEchoNode) ID() types.NodeID { return s.id }

func (s *syncEchoNode) Step(r int, _ []types.Message) []types.Message {
	if r != 1 {
		return nil
	}
	out := make([]types.Message, 0, s.n-1)
	for i := 0; i < s.n; i++ {
		if types.NodeID(i) == s.id {
			continue
		}
		out = append(out, types.Message{To: types.NodeID(i), Round: 1, Value: s.value})
	}
	return out
}

func (s *syncEchoNode) Finish(inbox []types.Message) {
	s.receipts = map[types.NodeID]types.Value{s.id: s.value}
	for _, m := range inbox {
		s.receipts[m.From] = m.Value
	}
}

func (s *syncEchoNode) Decide() types.Value { return s.value }

// FuzzAsyncVsSync is the fault-free differential between the asynchronous
// and synchronous worlds: with every node A-Casting its input, each node's
// A-Cast-delivered vector must equal the receipt vector the sequential
// driver produces for a round-1 all-to-all broadcast. Quorum certificates
// and deadline-closed rounds are different mechanisms computing the same
// function when nothing faults.
func FuzzAsyncVsSync(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(99), uint8(2), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, fRaw, polRaw uint8) {
		p := fuzzParams(nRaw, fRaw)
		inputs := make([]types.Value, p.N)
		for i := range inputs {
			inputs[i] = types.Value(int64(i)*1000 + seed%997)
		}

		// Asynchronous side: all nodes broadcast, fair seeded policies only
		// (a fault-free run must terminate).
		var all types.NodeSet
		var nodes []round.AsyncNode
		for i := 0; i < p.N; i++ {
			all = all.Add(types.NodeID(i))
		}
		for i := 0; i < p.N; i++ {
			nodes = append(nodes, NewNode(Config{
				ID: types.NodeID(i), Params: p, Broadcasters: all, Input: inputs[i],
			}))
		}
		specs := []string{"fifo", "reorder", "delay:8", "adversarial"}
		pol, err := round.ParsePolicy(specs[int(polRaw)%len(specs)], seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Terminated {
			t.Fatalf("fault-free all-broadcast A-Cast did not terminate (n=%d f=%d)", p.N, p.F)
		}

		// Synchronous side: the sequential driver's round-1 receipt vector.
		sync := make([]round.Node, p.N)
		for i := range sync {
			sync[i] = &syncEchoNode{id: types.NodeID(i), n: p.N, value: inputs[i]}
		}
		if _, err := round.Run(sync, round.Config{Rounds: 1}, round.Reference{}); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < p.N; i++ {
			async := nodes[i].(*Node).Delivered()
			receipts := sync[i].(*syncEchoNode).receipts
			if len(async) != len(receipts) {
				t.Fatalf("node %d: async delivered %d values, sync received %d", i, len(async), len(receipts))
			}
			for b, v := range receipts {
				if async[b] != v {
					t.Fatalf("node %d: async[%d]=%v, sync receipt %v", i, b, async[b], v)
				}
			}
		}
	})
}
