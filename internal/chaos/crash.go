package chaos

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/types"
)

// CrashSpec schedules one crash-recovery event: the node's process is killed
// (SIGKILL under the cluster driver) when it reaches the given round and
// phase, and — unless NoRestart is set — respawned to recover from its last
// checkpoint. Crash victims are benign-faulty in the paper's sense: they
// fall silent, which §4 assumption (b) makes detectable, so peers substitute
// V_d for their missing claims. A victim therefore counts toward the
// scenario's fault budget f exactly like a Byzantine node, even though its
// recovery is judged separately (see RecoveryInfo).
type CrashSpec struct {
	Node types.NodeID `json:"node"`
	// Round is the protocol round (1-based, at most m+1) the kill fires in.
	Round int `json:"round"`
	// Phase is where within the round the kill lands: CrashPhaseSent (after
	// the node's round-Round batches left, before the round closed; the
	// default) or CrashPhaseClosed (after the round's delivery completed).
	Phase string `json:"phase,omitempty"`
	// Corrupt, when non-empty, damages the victim's checkpoint before the
	// respawn: CorruptBitFlip, CorruptTruncate, or CorruptStale. The restore
	// path must detect the damage (checksum, framing, or round mismatch) and
	// fall back to the V_d-safe re-initialization — a corrupted checkpoint
	// importing silently is a self-stabilization violation.
	Corrupt string `json:"corrupt,omitempty"`
	// NoRestart makes the kill permanent: the process is not respawned, and
	// the victim is expected to show up as NeverConverged in the taxonomy.
	NoRestart bool `json:"noRestart,omitempty"`
}

// Crash phases.
const (
	CrashPhaseSent   = "sent"
	CrashPhaseClosed = "closed"
)

// Checkpoint corruption modes.
const (
	CorruptBitFlip  = "bitflip"
	CorruptTruncate = "truncate"
	CorruptStale    = "stale"
)

// EffectivePhase returns the crash phase with the empty default resolved.
func (c CrashSpec) EffectivePhase() string {
	if c.Phase == "" {
		return CrashPhaseSent
	}
	return c.Phase
}

// NeverConverged is the taxonomy label for a crash schedule whose victims did
// not all come back: at least one respawn-eligible victim never rejoined and
// reported (or a NoRestart kill was scheduled, which never converges by
// construction).
const NeverConverged = "NeverConverged"

// ConvergedLabel renders the taxonomy label for a recovery that lost k
// rounds of state: "Converged-in-k-rounds". k is bounded by the kill round,
// which validation bounds by the protocol depth m+1 — so a recovering system
// re-converges within the same m+1 horizon the paper's graceful-degradation
// observation is stated over.
func ConvergedLabel(k int) string { return fmt.Sprintf("Converged-in-%d-rounds", k) }

// RecoveryInfo is the crash-recovery side of an execution's outcome,
// reported by executors that can observe real process death (the cluster
// driver). The in-process surrogate cannot restart anything and leaves it
// nil.
type RecoveryInfo struct {
	// Restarts counts respawned victim processes that reported back.
	Restarts int `json:"restarts"`
	// Unrecovered counts victims that never reported a final state: every
	// NoRestart victim, plus any respawned victim that failed to rejoin
	// before the recovery grace deadline.
	Unrecovered int `json:"unrecovered,omitempty"`
	// LostRounds is k in Converged-in-k-rounds: the worst number of rounds
	// of received state any victim lost across the kill. A clean restore
	// from a "closed" checkpoint loses 0; a "sent" checkpoint loses the
	// in-flight round (1); a rejected checkpoint loses every round up to the
	// kill, at most m+1.
	LostRounds int `json:"lostRounds"`
	// CorruptRejected and StaleRejected count checkpoint restores refused
	// for checksum/framing damage and for a wrong recorded round. They are
	// the evidence that corrupted state never imported silently.
	CorruptRejected int64 `json:"corruptRejected,omitempty"`
	StaleRejected   int64 `json:"staleRejected,omitempty"`
}

// Converged reports whether every victim came back.
func (ri *RecoveryInfo) Converged() bool { return ri != nil && ri.Unrecovered == 0 }

// Label renders the convergence taxonomy entry for this recovery.
func (ri *RecoveryInfo) Label() string {
	if !ri.Converged() {
		return NeverConverged
	}
	return ConvergedLabel(ri.LostRounds)
}

// ValidateCrashes rejects malformed crash schedules early, identically for
// every executor. A victim must not also be armed, so it checks the fault
// list too (adversary.CheckFaults).
func (sc Scenario) ValidateCrashes() error {
	if len(sc.Crashes) == 0 {
		return nil
	}
	depth := core.Params{N: sc.N, M: sc.M, U: sc.U, Sender: sc.Sender}.Depth()
	armed, err := adversary.CheckFaults(sc.N, sc.Faults)
	if err != nil {
		return err
	}
	seen := make(map[types.NodeID]bool, len(sc.Crashes))
	for _, cr := range sc.Crashes {
		if cr.Node < 0 || int(cr.Node) >= sc.N {
			return fmt.Errorf("chaos: crash node %d out of range [0,%d)", int(cr.Node), sc.N)
		}
		if seen[cr.Node] {
			return fmt.Errorf("chaos: node %d crash-scheduled twice", int(cr.Node))
		}
		seen[cr.Node] = true
		if armed.Contains(cr.Node) {
			return fmt.Errorf("chaos: node %d is both Byzantine and crash-scheduled", int(cr.Node))
		}
		if cr.Round < 1 || cr.Round > depth {
			return fmt.Errorf("chaos: crash round %d outside [1,%d]", cr.Round, depth)
		}
		switch cr.Phase {
		case "", CrashPhaseSent, CrashPhaseClosed:
		default:
			return fmt.Errorf("chaos: unknown crash phase %q", cr.Phase)
		}
		switch cr.Corrupt {
		case "", CorruptBitFlip, CorruptTruncate:
		case CorruptStale:
			if cr.Round < 2 {
				return fmt.Errorf("chaos: stale-checkpoint crash needs round ≥ 2 (no earlier checkpoint exists at round %d)", cr.Round)
			}
		default:
			return fmt.Errorf("chaos: unknown checkpoint corruption %q", cr.Corrupt)
		}
		if cr.Corrupt != "" && cr.NoRestart {
			return fmt.Errorf("chaos: node %d corrupts a checkpoint no restart will read", int(cr.Node))
		}
	}
	return nil
}

// judgeRecovery evaluates the crash-recovery expectations against an
// executor-reported RecoveryInfo: every respawn-eligible victim must
// converge, within the m+1 round bound, and scheduled checkpoint corruption
// must have been caught. Executors that cannot observe recovery (ri == nil)
// are exempt — the spec verdict still judges the victims' silence.
func (sc Scenario) judgeRecovery(ri *RecoveryInfo) (bool, string) {
	if ri == nil || len(sc.Crashes) == 0 {
		return true, ""
	}
	permanent, corrupt, stale := 0, false, false
	for _, cr := range sc.Crashes {
		if cr.NoRestart {
			permanent++
		}
		switch cr.Corrupt {
		case CorruptBitFlip, CorruptTruncate:
			corrupt = true
		case CorruptStale:
			stale = true
		}
	}
	if ri.Unrecovered > permanent {
		return false, fmt.Sprintf("crash recovery: %d victim(s) scheduled for restart never converged", ri.Unrecovered-permanent)
	}
	if ri.LostRounds > sc.M+1 {
		return false, fmt.Sprintf("crash recovery lost %d rounds of state, beyond the m+1 = %d bound", ri.LostRounds, sc.M+1)
	}
	if corrupt && ri.CorruptRejected == 0 {
		return false, "a corrupted checkpoint was scheduled but no restore rejected one"
	}
	if stale && ri.StaleRejected == 0 {
		return false, "a stale checkpoint was scheduled but no restore rejected one"
	}
	return true, ""
}
