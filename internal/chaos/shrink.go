package chaos

import (
	"encoding/json"
	"fmt"
	"strings"

	"degradable/internal/adversary"
	"degradable/internal/types"
)

// maxShrinkRuns bounds the scenario re-executions one shrink may spend; each
// re-execution is a full (small) agreement run.
const maxShrinkRuns = 400

// Shrink delta-debugs a scenario that misses its expected verdict down to a
// locally minimal counterexample that still misses it: it greedily drops
// injectors, drops faults, and shaves nodes toward the Theorem-2 minimum
// 2m+u+1, re-running after every candidate step and keeping only reductions
// that preserve the failure. The expectation level is frozen to its resolved
// value first, so removing the last relaxed injector cannot silently change
// what the scenario is judged against.
//
// It returns the minimal failing outcome and the number of accepted
// reduction steps. A scenario that does not fail shrinks to itself.
func Shrink(sc Scenario) (*Outcome, int, error) {
	sc.Expect.Level = sc.ResolveLevel()
	out, err := sc.Run()
	if err != nil {
		return nil, 0, err
	}
	if out.ExpectationMet {
		return out, 0, nil
	}

	runs := 1
	fails := func(cand Scenario) (*Outcome, bool) {
		if runs >= maxShrinkRuns {
			return nil, false
		}
		runs++
		o, err := cand.Run()
		if err != nil || o.ExpectationMet || o.ClassValue() == Infeasible {
			return nil, false
		}
		return o, true
	}

	steps := 0
	for improved := true; improved; {
		improved = false
		// 1. Drop injector layers, last first (later layers see traffic the
		// earlier ones already thinned, so they are the most dispensable).
		for i := len(out.Scenario.Injectors) - 1; i >= 0; i-- {
			cand := out.Scenario
			cand.Injectors = deleteAt(cand.Injectors, i)
			if o, ok := fails(cand); ok {
				out, improved = o, true
				steps++
				break
			}
		}
		if improved {
			continue
		}
		// 2. Drop crash events, last first (like injectors, they are more
		// dispensable than the Byzantine faults that usually carry the
		// failure).
		for i := len(out.Scenario.Crashes) - 1; i >= 0; i-- {
			cand := out.Scenario
			cand.Crashes = deleteAt(cand.Crashes, i)
			if o, ok := fails(cand); ok {
				out, improved = o, true
				steps++
				break
			}
		}
		if improved {
			continue
		}
		// 3. Drop faults, last first.
		for i := len(out.Scenario.Faults) - 1; i >= 0; i-- {
			cand := out.Scenario
			cand.Faults = deleteAt(cand.Faults, i)
			if o, ok := fails(cand); ok {
				out, improved = o, true
				steps++
				break
			}
		}
		if improved {
			continue
		}
		// 4. Remove physical edges toward a minimal failing topology.
		// Strict-mode candidates whose connectivity falls below m+u+1 fail
		// to validate (Run errors), so fails() rejects them and the
		// scenario stays inside Theorem 3's feasible region unless it was
		// loose to begin with.
		if ts := out.Scenario.Topology; ts != nil {
			for _, e := range ts.edgeCandidates() {
				cand := out.Scenario
				nt := *ts
				nt.Removed = append(append([][2]int{}, ts.Removed...), e)
				cand.Topology = &nt
				if o, ok := fails(cand); ok {
					out, improved = o, true
					steps++
					break
				}
			}
		}
		if improved {
			continue
		}
		// 5. Shave the highest node toward N = 2m+u+1 (flat scenarios only:
		// a topology spec pins the node count to the graph's order).
		if out.Scenario.Topology == nil {
			if cand, ok := shaveNode(out.Scenario); ok {
				if o, ok := fails(cand); ok {
					out, improved = o, true
					steps++
				}
			}
		}
	}
	return out, steps, nil
}

// deleteAt returns s without element i (copy; the input is not modified).
func deleteAt[T any](s []T, i int) []T {
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// shaveNode removes the highest-numbered node from the scenario if it is
// fault-free, not the sender, not a crash victim, and the system stays at
// or above the Theorem-2 minimum. Partition groups are rewritten to exclude
// it.
func shaveNode(sc Scenario) (Scenario, bool) {
	last := types.NodeID(sc.N - 1)
	if sc.N-1 < 2*sc.M+sc.U+1 || sc.Sender == last {
		return sc, false
	}
	for _, f := range sc.Faults {
		if f.Node == last {
			return sc, false
		}
	}
	for _, cr := range sc.Crashes {
		if cr.Node == last {
			return sc, false
		}
	}
	sc.N--
	injectors := make([]Injector, len(sc.Injectors))
	copy(injectors, sc.Injectors)
	for i, in := range injectors {
		if in.Kind != Partition {
			continue
		}
		groups := make([][]types.NodeID, 0, len(in.Groups))
		for _, g := range in.Groups {
			ng := make([]types.NodeID, 0, len(g))
			for _, id := range g {
				if id != last {
					ng = append(ng, id)
				}
			}
			groups = append(groups, ng)
		}
		in.Groups = groups
		injectors[i] = in
	}
	sc.Injectors = injectors
	return sc, true
}

// ReproCommand renders a shell command that replays the scenario through
// degradable chaos and exits non-zero when it still misses its
// expectation.
func ReproCommand(sc Scenario) string {
	b, err := json.Marshal(sc)
	if err != nil {
		return fmt.Sprintf("chaos: unencodable scenario: %v", err)
	}
	return fmt.Sprintf("go run ./cmd/degradable chaos -replay '%s'", b)
}

// ReproGo renders the scenario as a copy-pasteable reproduction against the
// public facade: a degradable.Agree call when the counterexample needs no
// channel interference, or a degradable.AgreeObserved-equivalent replay via
// the degradable.Chaos facade when injectors remain.
func ReproGo(sc Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cfg := degradable.Config{N: %d, M: %d, U: %d", sc.N, sc.M, sc.U)
	if sc.Sender != 0 {
		fmt.Fprintf(&b, ", Sender: %d", int(sc.Sender))
	}
	b.WriteString("}\n")
	if len(sc.Injectors) == 0 && len(sc.Crashes) == 0 && sc.Topology == nil && sc.Driver != DriverAsync {
		fmt.Fprintf(&b, "res, err := degradable.Agree(cfg, %d", int64(sc.SenderValue))
		for _, f := range sc.Faults {
			b.WriteString(",\n\t" + faultLiteral(f))
		}
		b.WriteString(")\n")
	} else {
		// Channel interference (or a barrier-free async schedule) is not
		// expressible through Agree; replay the exact scenario (same seed,
		// same coin flips) via the chaos facade instead.
		enc, err := json.Marshal(sc)
		if err != nil {
			enc = []byte(fmt.Sprintf(`{"unencodable": %q}`, err.Error()))
		}
		fmt.Fprintf(&b, "sc, err := degradable.ChaosScenarioFromJSON([]byte(`%s`))\n", enc)
		b.WriteString("out, err := degradable.ChaosReplay(sc)\n")
	}
	fmt.Fprintf(&b, "// expected: %s", expectationComment(sc))
	return b.String()
}

// faultLiteral renders one fault as a degradable.Fault literal.
func faultLiteral(f FaultSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "degradable.Fault{Node: %d, Kind: degradable.%s", int(f.Node), facadeKind(f.Kind))
	if f.Value != 0 {
		fmt.Fprintf(&b, ", Value: %d", int64(f.Value))
	}
	if f.Seed != 0 {
		fmt.Fprintf(&b, ", Seed: %d", f.Seed)
	}
	b.WriteString("}")
	return b.String()
}

// facadeKind names the degradable.FaultKind constant for an adversary kind
// (the enumerations are aligned by construction).
func facadeKind(k adversary.Kind) string {
	switch k {
	case adversary.KindSilent:
		return "FaultSilent"
	case adversary.KindCrash:
		return "FaultCrash"
	case adversary.KindLie:
		return "FaultLie"
	case adversary.KindTwoFaced:
		return "FaultTwoFaced"
	case adversary.KindRandom:
		return "FaultRandom"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// expectationComment says what the reproduction should fail to meet.
func expectationComment(sc Scenario) string {
	parts := []string{fmt.Sprintf("level %s", sc.ResolveLevel())}
	if sc.Expect.Condition != "" {
		parts = append(parts, fmt.Sprintf("pinned condition %s", sc.Expect.Condition))
	}
	return strings.Join(parts, ", ") + " — this scenario misses it; check res.OK / res.Graceful"
}
