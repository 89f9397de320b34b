package acast

import (
	"fmt"
	"testing"

	"degradable/internal/round"
	"degradable/internal/types"
)

// runNodes builds one run's complement at n with f = ⌊(n−1)/3⌋: A-Cast of
// node 0's value, or ABA over alternating input bits. With byz set, node n−1
// is wrapped in the seeded random-value Byzantine wrapper.
func runNodes(aba bool, n int, byz bool, seed int64) []round.AsyncNode {
	p := Params{N: n, F: (n - 1) / 3}
	nodes := make([]round.AsyncNode, n)
	for i := range nodes {
		id := types.NodeID(i)
		if aba {
			nodes[i] = NewABA(id, p, uint8(i&1), uint64(seed))
		} else {
			nodes[i] = NewNode(Config{ID: id, Params: p, Input: 7})
		}
	}
	if byz {
		nodes[n-1] = newByzantine(nodes[n-1], faultRandom, n, 9, seed)
	}
	return nodes
}

// BenchmarkRunAsync prices one whole asynchronous run — its node complement,
// its policy and RunAsync — per protocol, system size and policy: the
// layer-level counterpart of the sim_async workload's bytes per op.
func BenchmarkRunAsync(b *testing.B) {
	for _, aba := range []bool{false, true} {
		proto := "acast"
		if aba {
			proto = "aba"
		}
		for _, n := range []int{4, 31} {
			for _, sched := range []string{round.SchedFIFO, round.SchedAdversarial} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", proto, n, sched), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						policy, err := round.ParsePolicy(sched, 1)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := round.RunAsync(runNodes(aba, n, false, 1), round.AsyncConfig{Policy: policy}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
