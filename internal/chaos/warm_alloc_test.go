//go:build !race

package chaos

import (
	"testing"

	"degradable/internal/adversary"
)

// maxWarmRunAllocs bounds a warm, flat, injector-free Scenario.Run: the
// outcome, the raw outcome and its decision copy, the fault list and the
// strategy are allocated per run, the complement and engine are not. It
// measured 7 on the N = 7, m = 2 lie scenario below; assembling that run
// from nothing measured 213.
const maxWarmRunAllocs = 10

// TestWarmRunAllocs pins the warm path's allocations, so a change that
// rebuilds the complement per run fails here. (!race: the race detector
// drops pooled objects.)
func TestWarmRunAllocs(t *testing.T) {
	sc := Scenario{N: 7, M: 2, U: 2, SenderValue: 1001,
		Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindLie, Value: 9}}}
	run := func() {
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // build the shape's instance
	if allocs := testing.AllocsPerRun(100, run); allocs > maxWarmRunAllocs {
		t.Errorf("warm Scenario.Run allocates %v times, want ≤ %d", allocs, maxWarmRunAllocs)
	}
}
