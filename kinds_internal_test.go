package degradable

import (
	"reflect"
	"testing"
)

// TestStrategyDelegatesToSharedBuilder holds Fault.Strategy (Fault is
// adversary.FaultSpec) to the shared Kind builder: the same strategy for
// every kind, and the unknown-kind error the facade documents.
func TestStrategyDelegatesToSharedBuilder(t *testing.T) {
	f := Fault{Node: 1, Kind: FaultKind(42)}
	if _, err := f.Strategy(5); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, k := range []FaultKind{FaultSilent, FaultCrash, FaultLie, FaultTwoFaced, FaultRandom} {
		f := Fault{Node: 1, Kind: k, Value: 99, Seed: 7}
		s, err := f.Strategy(5)
		if err != nil || s == nil {
			t.Fatalf("kind %v: strategy = %v, %v", k, s, err)
		}
		want, _ := k.Build(5, 99, 7)
		if !reflect.DeepEqual(s, want) {
			t.Errorf("kind %v: Strategy = %#v, Build = %#v", k, s, want)
		}
	}
}
