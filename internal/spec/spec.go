// Package spec is the executable specification of m/u-degradable agreement.
//
// Given one execution's outcome — who was faulty, what the sender's value
// was, and what every fault-free receiver decided — Check determines which
// of the paper's conditions applies (D.1/D.2 for f ≤ m, D.3/D.4 for
// m < f ≤ u) and whether the decisions satisfy it. It also verifies the
// graceful-degradation observation of §2: with N > 2m+u and f ≤ u, at least
// m+1 fault-free nodes (sender included) agree on an identical value.
//
// The channel-system conditions B.1 and C.1–C.3 (§3) are checked where they
// live, in internal/channels; interactive-consistency vectors are checked
// by internal/protocol/ic, which applies this package entry-wise.
package spec

import (
	"fmt"
	"sort"
	"strings"

	"degradable/internal/types"
)

// Regime identifies which fault regime an execution fell in.
type Regime int

// Regimes, by increasing fault count.
const (
	// RegimeClassic is f ≤ m: full Byzantine agreement required (D.1, D.2).
	RegimeClassic Regime = iota + 1
	// RegimeDegraded is m < f ≤ u: degraded agreement required (D.3, D.4).
	RegimeDegraded
	// RegimeBeyond is f > u: the protocol promises nothing.
	RegimeBeyond
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeClassic:
		return "classic"
	case RegimeDegraded:
		return "degraded"
	case RegimeBeyond:
		return "beyond-u"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Execution is the observable outcome of one agreement run.
type Execution struct {
	// M and U are the instance parameters.
	M, U int
	// Sender is the distributing node.
	Sender types.NodeID
	// SenderValue is the value a fault-free sender distributed. Ignored
	// when the sender is faulty.
	SenderValue types.Value
	// Faulty is the fault set (sender included when faulty).
	Faulty types.NodeSet
	// Decisions maps each node to its decided value. Entries for faulty
	// nodes are ignored; every fault-free receiver must be present.
	Decisions map[types.NodeID]types.Value
}

// F returns the number of faulty nodes.
func (e Execution) F() int { return e.Faulty.Len() }

// SenderFaulty reports whether the sender is in the fault set.
func (e Execution) SenderFaulty() bool { return e.Faulty.Contains(e.Sender) }

// Verdict is the result of checking an execution against the spec.
type Verdict struct {
	// Regime and Condition identify what was required ("D.1".."D.4", or
	// "none" beyond u).
	Regime    Regime
	Condition string
	// OK reports whether the requirement held. Beyond u it is trivially
	// true.
	OK bool
	// Reason explains a violation (empty when OK).
	Reason string
	// Classes is the decision histogram over fault-free receivers.
	Classes map[types.Value]int
	// Graceful reports the §2 observation: some value is shared by at
	// least m+1 fault-free nodes (sender counts for its own value). Only
	// meaningful when f ≤ u; beyond u it is false.
	Graceful bool
	// Margin is the §2 floor's slack: the largest fault-free agreement
	// class (the fault-free sender counted for its own value) minus m+1.
	// Within u, Graceful = Margin ≥ 0.
	Margin int
}

// Select returns the fault regime and the paper condition ("D.1".."D.4",
// or "none" beyond u) that f faults, the sender among them or not, call for.
func Select(m, u, f int, senderFaulty bool) (Regime, string) {
	switch {
	case f <= m && !senderFaulty:
		return RegimeClassic, "D.1"
	case f <= m:
		return RegimeClassic, "D.2"
	case f <= u && !senderFaulty:
		return RegimeDegraded, "D.3"
	case f <= u:
		return RegimeDegraded, "D.4"
	default:
		return RegimeBeyond, "none"
	}
}

// Check evaluates the execution against m/u-degradable agreement.
func Check(e Execution) Verdict {
	v := Verdict{Classes: e.classes()}
	v.Regime, v.Condition = Select(e.M, e.U, e.F(), e.SenderFaulty())
	v.Margin = e.margin(v.Classes)
	if v.Regime == RegimeBeyond {
		v.OK = true
		return v
	}
	v.OK, v.Reason = e.check(v.Condition, v.Classes)
	v.Graceful = v.Margin >= 0
	return v
}

// CheckCondition evaluates one named paper condition ("D.1".."D.4") against
// the execution, regardless of which condition the fault count would select.
// Check is the normal entry point; this one exists for harnesses that pin an
// expectation on purpose — e.g. the chaos engine's intentionally mis-bounded
// scenarios, which assert D.1 for fault counts that only warrant D.3/D.4 and
// expect the check to fail.
func CheckCondition(condition string, e Execution) (ok bool, reason string) {
	return e.check(condition, e.classes())
}

// receiver reports whether id's decision is judged: the fault-free
// receivers, never the sender.
func (e Execution) receiver(id types.NodeID) bool {
	return id != e.Sender && !e.Faulty.Contains(id)
}

// classes is the decision histogram over the fault-free receivers.
func (e Execution) classes() map[types.Value]int {
	classes := make(map[types.Value]int)
	for id, d := range e.Decisions {
		if e.receiver(id) {
			classes[d]++
		}
	}
	return classes
}

// check evaluates one named condition over the fault-free receivers.
func (e Execution) check(condition string, classes map[types.Value]int) (bool, string) {
	switch condition {
	case "D.1":
		return checkD1(e)
	case "D.2":
		return checkD2(classes)
	case "D.3":
		return checkD3(classes, e.SenderValue)
	case "D.4":
		return checkD4(classes)
	default:
		return false, fmt.Sprintf("unknown condition %q", condition)
	}
}

// checkD1: every fault-free receiver decided the sender's value. The lowest
// offending node is reported so the reason is deterministic.
func checkD1(e Execution) (bool, string) {
	worst := types.NodeID(-1)
	for id, d := range e.Decisions {
		if e.receiver(id) && d != e.SenderValue && (worst < 0 || id < worst) {
			worst = id
		}
	}
	if worst < 0 {
		return true, ""
	}
	return false, fmt.Sprintf("D.1: node %d decided %s, want sender's %s", int(worst), e.Decisions[worst], e.SenderValue)
}

// checkD2: all fault-free receivers decided one identical value.
func checkD2(classes map[types.Value]int) (bool, string) {
	if len(classes) > 1 {
		return false, fmt.Sprintf("D.2: %d distinct decisions %s", len(classes), renderClasses(classes))
	}
	return true, ""
}

// checkD3: at most two classes — the sender's value and V_d. The lowest
// offending value is reported so the reason is deterministic.
func checkD3(classes map[types.Value]int, senderValue types.Value) (bool, string) {
	keys := make([]types.Value, 0, len(classes))
	for d := range classes {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, d := range keys {
		if d != senderValue && d != types.Default {
			return false, fmt.Sprintf("D.3: decision %s is neither sender's %s nor V_d", d, senderValue)
		}
	}
	return true, ""
}

// checkD4: at most two classes, one of which is V_d — equivalently, at most
// one distinct non-default decision value.
func checkD4(classes map[types.Value]int) (bool, string) {
	var nonDefault int
	for d := range classes {
		if d != types.Default {
			nonDefault++
		}
	}
	if nonDefault > 1 {
		return false, fmt.Sprintf("D.4: %d distinct non-default decisions %s", nonDefault, renderClasses(classes))
	}
	return true, ""
}

// margin is the §2 observation's slack over fault-free *nodes* (receivers
// plus the sender, which trivially holds its own value when fault-free —
// alone, when no receiver is fault-free).
func (e Execution) margin(classes map[types.Value]int) int {
	senderFaulty := e.SenderFaulty()
	largest := 0
	if !senderFaulty {
		largest = 1
	}
	for d, c := range classes {
		if !senderFaulty && d == e.SenderValue {
			c++
		}
		largest = max(largest, c)
	}
	return largest - (e.M + 1)
}

func renderClasses(classes map[types.Value]int) string {
	keys := make([]types.Value, 0, len(classes))
	for d := range classes {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	parts := make([]string, len(keys))
	for i, d := range keys {
		parts[i] = fmt.Sprintf("%s×%d", d, classes[d])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
