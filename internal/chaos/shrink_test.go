package chaos

import (
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/types"
)

// misbounded returns the demo scenario from the issue: f = 4 > u = 2 faults,
// yet the author pinned D.1 ("all fault-free nodes decide the sender's
// value") as if the system were still within bounds. The pin must fail, and
// the shrinker must cut the scenario down to the smallest fault set that
// still defeats D.1.
func misbounded() Scenario {
	return Scenario{
		N: 7, M: 1, U: 2,
		SenderValue: 1001,
		Faults: []adversary.FaultSpec{
			{Node: 1, Kind: adversary.KindLie, Value: 2002},
			{Node: 2, Kind: adversary.KindLie, Value: 2002},
			{Node: 3, Kind: adversary.KindLie, Value: 2002},
			{Node: 4, Kind: adversary.KindLie, Value: 2002},
		},
		Injectors: Compose(
			Injector{Kind: Duplicate, P: 0.2},
			Injector{Kind: Drop, P: 0.1, Scope: ScopeFaultyOnly},
		),
		Seed:   21,
		Expect: Expectation{Condition: "D.1"},
	}
}

func TestShrinkMisboundedScenario(t *testing.T) {
	sc := misbounded()
	full, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.ExpectationMet {
		t.Fatalf("mis-bounded scenario met its pinned D.1 expectation: %+v", full)
	}

	shrunk, steps, err := Shrink(sc)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.ExpectationMet {
		t.Fatal("shrunk scenario no longer fails")
	}
	if steps == 0 {
		t.Error("shrinker accepted no reduction steps on a fat scenario")
	}
	min := shrunk.Scenario
	if len(min.Injectors) != 0 {
		t.Errorf("injectors survived shrinking: %+v (they are not needed to defeat D.1)", min.Injectors)
	}
	// Three lying faults overwhelm D.1's echo majority even at N = 5; the
	// shrinker cannot do better than faults it still needs, so just assert
	// strict progress on both axes.
	if len(min.Faults) >= len(sc.Faults) {
		t.Errorf("fault set not reduced: %d faults", len(min.Faults))
	}
	if min.N >= sc.N {
		t.Errorf("node count not reduced: N=%d", min.N)
	}
	if min.N < 2*min.M+min.U+1 {
		t.Errorf("shrunk below the Theorem-2 bound: N=%d", min.N)
	}

	// 1-minimality: removing any remaining fault must make D.1 pass again.
	for i := range min.Faults {
		cand := min
		cand.Faults = deleteAt(min.Faults, i)
		o, err := cand.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !o.ExpectationMet {
			t.Errorf("not 1-minimal: still fails without fault %d", i)
		}
	}

	// The rendered reproductions replay the counterexample.
	cmd := ReproCommand(min)
	if !strings.Contains(cmd, "go run ./cmd/degradable chaos -replay") {
		t.Errorf("repro command unusable: %s", cmd)
	}
	code := ReproGo(min)
	if !strings.Contains(code, "degradable.Agree(") {
		t.Errorf("injector-free counterexample should render a degradable.Agree call:\n%s", code)
	}
	replay, err := min.Run()
	if err != nil {
		t.Fatal(err)
	}
	if replay.ExpectationMet {
		t.Error("replayed counterexample no longer fails")
	}
	t.Logf("shrunk %d→%d faults, N %d→%d in %d steps\nrepro: %s\n%s",
		len(sc.Faults), len(min.Faults), sc.N, min.N, steps, cmd, code)
}

func TestShrinkHealthyScenarioIsIdentity(t *testing.T) {
	sc := base(30)
	sc.Faults = []adversary.FaultSpec{{Node: 2, Kind: adversary.KindSilent}}
	out, steps, err := Shrink(sc)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 0 || !out.ExpectationMet {
		t.Errorf("healthy scenario shrank: steps=%d met=%v", steps, out.ExpectationMet)
	}
}

func TestShrinkFreezesExpectationLevel(t *testing.T) {
	// A classic-regime scenario whose failure depends on the relaxed message
	// model: under LevelAuto, deleting the drop layer would flip the level
	// from graceful back to full and change the target mid-shrink. Shrink
	// freezes the level first, so the reduced scenario is judged against the
	// same graceful bar and the drop layer (the actual culprit) survives
	// only if the failure needs it.
	sc := Scenario{
		N: 5, M: 1, U: 2,
		SenderValue: 1001,
		Injectors:   Compose(Injector{Kind: Drop, P: 1}),
		Seed:        40,
		// Pin D.1 so the full-drop run fails its expectation.
		Expect: Expectation{Condition: "D.1"},
	}
	out, _, err := Shrink(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExpectationMet {
		t.Fatal("full-drop D.1 pin did not fail")
	}
	if got := out.Scenario.Expect.Level; got == LevelAuto {
		t.Error("shrinker left the expectation level unfrozen")
	}
	if len(out.Scenario.Injectors) == 0 {
		t.Error("shrinker removed the drop layer the failure depends on")
	}
}

func TestReproGoWithInjectors(t *testing.T) {
	sc := base(50)
	sc.Injectors = Compose(Injector{Kind: Drop, P: 0.3})
	code := ReproGo(sc)
	for _, want := range []string{"degradable.ChaosScenarioFromJSON", "degradable.ChaosReplay"} {
		if !strings.Contains(code, want) {
			t.Errorf("repro missing %s:\n%s", want, code)
		}
	}
}

func TestReproGoFaultLiterals(t *testing.T) {
	sc := Scenario{
		N: 5, M: 1, U: 2, SenderValue: 1001, Seed: 8,
		Faults: []adversary.FaultSpec{
			{Node: 1, Kind: adversary.KindRandom, Value: types.Value(2002), Seed: 77},
			{Node: 4, Kind: adversary.KindSilent},
		},
	}
	code := ReproGo(sc)
	for _, want := range []string{
		"degradable.Fault{Node: 1, Kind: degradable.FaultRandom, Value: 2002, Seed: 77}",
		"degradable.Fault{Node: 4, Kind: degradable.FaultSilent}",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("repro missing %q:\n%s", want, code)
		}
	}
}
