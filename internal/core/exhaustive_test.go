package core

import (
	"fmt"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/eig"
	"degradable/internal/runner"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// The exhaustive tests verify Theorem 1 for depth-2 instances against EVERY
// deterministic adversary, not just the battery: each faulty node may send
// any honest receiver any value in {α, β, V_d} or omit the message, in round
// 1 (if it is the sender) and in round 2 (its single relay of the sender's
// claim). For depth-2 protocols this is the complete deterministic adversary
// space up to renaming of values, because each faulty node's observable
// behaviour is exactly one decision per (recipient, claim).

// sendAbsent marks an omitted message in the enumeration domain.
const sendAbsent types.Value = -999

var exhaustiveDomain = []types.Value{alpha, beta, types.Default, sendAbsent}

// behaviour is one faulty node's complete depth-2 behaviour: what it sends
// each honest receiver in round 1 (senders only) and round 2.
type behaviour struct {
	round1 map[types.NodeID]types.Value // faulty sender's direct sends
	round2 map[types.NodeID]types.Value // faulty receiver/sender relays
}

// evalFunctional computes every honest receiver's decision directly from the
// EIG trees a depth-2 run would produce — no message engine, microseconds
// per adversary.
func evalFunctional(t *testing.T, p Params, faulty types.NodeSet, bhv map[types.NodeID]behaviour) map[types.NodeID]types.Value {
	t.Helper()
	if p.Depth() != 2 {
		t.Fatalf("evalFunctional requires depth 2, got %d", p.Depth())
	}
	sender := p.Sender
	// direct[j]: value receiver j got from the sender; sendAbsent if none.
	direct := make(map[types.NodeID]types.Value, p.N)
	for j := 0; j < p.N; j++ {
		id := types.NodeID(j)
		if id == sender {
			continue
		}
		if faulty.Contains(sender) {
			v, ok := bhv[sender].round1[id]
			if !ok {
				v = alpha // unscripted (faulty recipient): honest baseline
			}
			direct[id] = v
		} else {
			direct[id] = alpha
		}
	}
	decisions := make(map[types.NodeID]types.Value)
	for i := 0; i < p.N; i++ {
		self := types.NodeID(i)
		if self == sender || faulty.Contains(self) {
			continue
		}
		tree, err := eig.New(p.N, 2, sender)
		if err != nil {
			t.Fatal(err)
		}
		if v := direct[self]; v != sendAbsent {
			if err := tree.Set(types.Path{sender}, v); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < p.N; j++ {
			relayer := types.NodeID(j)
			if relayer == sender || relayer == self {
				continue
			}
			var v types.Value
			if faulty.Contains(relayer) {
				var ok bool
				v, ok = bhv[relayer].round2[self]
				if !ok {
					t.Fatalf("missing round2 script for %d→%d", int(relayer), int(self))
				}
			} else {
				// Honest relay: stored value, Default when absent.
				v = direct[relayer]
				if v == sendAbsent {
					v = types.Default
				}
			}
			if v == sendAbsent {
				continue
			}
			if err := tree.Set(types.Path{sender, relayer}, v); err != nil {
				t.Fatal(err)
			}
		}
		decisions[self] = tree.Resolve(self, p.Rule())
	}
	return decisions
}

// forEachBehaviour enumerates all joint behaviours of the fault set against
// the honest receivers and invokes fn for each. Returns the number of
// behaviours enumerated.
func forEachBehaviour(p Params, faulty types.NodeSet, fn func(map[types.NodeID]behaviour)) int {
	sender := p.Sender
	var honestReceivers []types.NodeID
	for j := 0; j < p.N; j++ {
		id := types.NodeID(j)
		if id != sender && !faulty.Contains(id) {
			honestReceivers = append(honestReceivers, id)
		}
	}
	ids := faulty.IDs()
	// Build per-node slots: one assignment per round the node acts in.
	type slot struct {
		node   types.NodeID
		round1 bool
	}
	var slots []slot
	for _, id := range ids {
		if id == sender {
			// In a depth-2 protocol the sender has no round-2 relay (the
			// only level-1 path contains it), so only round 1 is scripted.
			slots = append(slots, slot{node: id, round1: true})
			continue
		}
		slots = append(slots, slot{node: id}) // round 2 relay
	}
	count := 0
	var rec func(i int, acc map[types.NodeID]behaviour)
	rec = func(i int, acc map[types.NodeID]behaviour) {
		if i == len(slots) {
			count++
			fn(acc)
			return
		}
		s := slots[i]
		adversary.EnumerateAssignments(honestReceivers, exhaustiveDomain, func(assign map[types.NodeID]types.Value) bool {
			b := acc[s.node]
			cp := make(map[types.NodeID]types.Value, len(assign))
			for k, v := range assign {
				cp[k] = v
			}
			if s.round1 {
				b.round1 = cp
			} else {
				b.round2 = cp
			}
			acc[s.node] = b
			rec(i+1, acc)
			return true
		})
	}
	rec(0, make(map[types.NodeID]behaviour))
	return count
}

func checkExhaustive(t *testing.T, p Params) {
	t.Helper()
	all := make([]types.NodeID, p.N)
	for i := range all {
		all[i] = types.NodeID(i)
	}
	total := 0
	for f := 0; f <= p.U; f++ {
		types.Subsets(all, f, func(faulty types.NodeSet) bool {
			n := forEachBehaviour(p, faulty, func(bhv map[types.NodeID]behaviour) {
				decisions := evalFunctional(t, p, faulty, bhv)
				verdict := spec.Check(spec.Execution{
					M: p.M, U: p.U,
					Sender:      p.Sender,
					SenderValue: alpha,
					Faulty:      faulty,
					Decisions:   decisions,
				})
				if !verdict.OK {
					t.Fatalf("N=%d m=%d u=%d faulty=%v bhv=%v: %s violated: %s (decisions %v)",
						p.N, p.M, p.U, faulty, bhv, verdict.Condition, verdict.Reason, decisions)
				}
				if !verdict.Graceful {
					t.Fatalf("N=%d m=%d u=%d faulty=%v: graceful degradation failed (decisions %v)",
						p.N, p.M, p.U, faulty, decisions)
				}
			})
			total += n
			return true
		})
	}
	t.Logf("N=%d m=%d u=%d: %d adversary behaviours verified", p.N, p.M, p.U, total)
}

func TestExhaustiveByzantine4Nodes(t *testing.T) {
	// 1/1-degradable (= Byzantine agreement) with N=4: every deterministic
	// single-fault adversary.
	checkExhaustive(t, Params{N: 4, M: 1, U: 1})
}

func TestExhaustiveDegradable5Nodes(t *testing.T) {
	// 1/2-degradable with N=5: every deterministic adversary with up to two
	// faults — the minimum-size instance of the paper's headline setting.
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	checkExhaustive(t, Params{N: 5, M: 1, U: 2})
}

func TestExhaustiveM0(t *testing.T) {
	// 0/2-degradable with N=3 and 0/3 with N=4: the supplied m=0 algorithm.
	checkExhaustive(t, Params{N: 3, M: 0, U: 2})
	if !testing.Short() {
		checkExhaustive(t, Params{N: 4, M: 0, U: 3})
	}
}

// TestFunctionalMatchesEngine cross-validates the functional evaluator
// against the message-passing engine on a sample of scripted adversaries.
func TestFunctionalMatchesEngine(t *testing.T) {
	p := Params{N: 5, M: 1, U: 2}
	faulty := types.NewNodeSet(0, 3) // faulty sender + one faulty receiver
	sample := 0
	forEachBehaviour(p, faulty, func(bhv map[types.NodeID]behaviour) {
		sample++
		if sample%97 != 0 { // deterministic thinning: every 97th behaviour
			return
		}
		want := evalFunctional(t, p, faulty, bhv)

		strategies := make(map[types.NodeID]adversary.Strategy, 2)
		for id, b := range bhv {
			strategies[id] = &depth2Script{behaviour: b}
		}
		in := runner.Instance{Protocol: p, SenderValue: alpha, Strategies: strategies}
		res, _, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		for id, w := range want {
			if got := res.Decisions[id]; got != w {
				t.Fatalf("bhv=%v node %d: engine %v, functional %v", bhv, int(id), got, w)
			}
		}
		// The scripts are stateless, so the per-path judge replays the
		// same run.
		checkSubInstances(t, p, strategies, fmt.Sprintf("bhv=%v", bhv))
	})
	if sample == 0 {
		t.Fatal("no behaviours enumerated")
	}
}

// depth2Script adapts a behaviour to the adversary.Strategy interface.
type depth2Script struct {
	behaviour behaviour
}

func (d *depth2Script) Corrupt(_ types.NodeID, m types.Message) (types.Value, bool) {
	var tbl map[types.NodeID]types.Value
	if m.Round == 1 {
		tbl = d.behaviour.round1
	} else {
		tbl = d.behaviour.round2
	}
	v, ok := tbl[m.To]
	if !ok {
		return m.Value, true // unscripted (faulty peer): honest value
	}
	if v == sendAbsent {
		return types.Default, false
	}
	return v, true
}

var _ adversary.Strategy = (*depth2Script)(nil)

func TestExhaustiveCountsSanity(t *testing.T) {
	// With one faulty receiver against 3 honest receivers the behaviour
	// space is 4^3 = 64.
	p := Params{N: 5, M: 1, U: 2}
	n := forEachBehaviour(p, types.NewNodeSet(2), func(map[types.NodeID]behaviour) {})
	if n != 64 {
		t.Errorf("behaviours = %d, want 64", n)
	}
	// A faulty sender acts only in round 1 of a depth-2 protocol; with 4
	// honest receivers and a 4-value domain that is 4^4 = 256 behaviours.
	n = forEachBehaviour(p, types.NewNodeSet(0), func(map[types.NodeID]behaviour) {})
	if n != 256 {
		t.Errorf("behaviours = %d, want 256", n)
	}
	_ = fmt.Sprintf
}
