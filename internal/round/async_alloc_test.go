//go:build !race

package round

import "testing"

// TestRunAsyncWarmQueueAllocs: once the pools are warm, a run's queue costs
// no allocation however far it grows. A gossip run at budget 4096 queues
// tens of thousands of sends where one at budget 64 queues hundreds, yet a
// warm RunAsync allocates the same number of objects for both (AllocsPerRun
// warms each budget with one run of its own first). One object of slack
// covers a collection that empties a pool between two runs. The race
// detector drops pooled objects on purpose, so the guard runs without it.
func TestRunAsyncWarmQueueAllocs(t *testing.T) {
	const n = 4
	for _, spec := range benchSpecs {
		allocs := func(budget int) float64 {
			return testing.AllocsPerRun(5, func() {
				policy, err := ParsePolicy(spec, 3)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := RunAsync(gossipFleet(n, budget, true), AsyncConfig{Policy: policy, MaxDeliveries: 1 << 20}); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(64), allocs(4096)
		if large > small+1 {
			t.Errorf("%s: warm run allocates %v objects at budget 4096, %v at budget 64", spec, large, small)
		}
	}
}
