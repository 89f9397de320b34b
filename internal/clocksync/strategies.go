package clocksync

import (
	"degradable/internal/rng"
	"degradable/internal/types"
)

// ConstantClock shows every reader the same fixed value — a stopped or
// wildly wrong clock.
func ConstantClock(value float64) ReadFunc {
	return func(types.NodeID, float64) float64 { return value }
}

// StuckAtZero is a clock that never advances.
func StuckAtZero() ReadFunc { return ConstantClock(0) }

// TwoFacedClock shows readers in set A real time plus offsetA, and everyone
// else real time plus offsetB — the adversarial ingredient behind the
// clock-synchronization impossibility results cited in §6.
func TwoFacedClock(a types.NodeSet, offsetA, offsetB float64) ReadFunc {
	return func(reader types.NodeID, t float64) float64 {
		if a.Contains(reader) {
			return t + offsetA
		}
		return t + offsetB
	}
}

// EdgePullClock shows each reader a value at the edge of the reader-visible
// cluster window (real time plus pull), trying to drag cluster midpoints
// apart without being excluded.
func EdgePullClock(pull float64) ReadFunc {
	return func(_ types.NodeID, t float64) float64 { return t + pull }
}

// RandomClock shows uniformly random values in [t−amp, t+amp],
// deterministically per seed, reader and read time. The ReadFunc re-seeds
// one source per read, so it is not safe for concurrent use.
func RandomClock(seed int64, amp float64) ReadFunc {
	r := rng.New(seed)
	return func(reader types.NodeID, t float64) float64 {
		r.Seed(seed ^ int64(reader)*2654435761 ^ int64(t*1e6))
		return t + (r.Float64()*2-1)*amp
	}
}

// Mission runs periodic resynchronization over a span of real time and
// aggregates the worst-case metrics.
type Mission struct {
	// Period is the resynchronization interval.
	Period float64
	// Rounds is the number of sync rounds to run.
	Rounds int
	// Delta is the skew/accuracy bound used for the condition check.
	Delta float64
}

// MissionReport aggregates a clock mission.
type MissionReport struct {
	// WorstSkewSynced and WorstAccuracy are maxima over all rounds.
	WorstSkewSynced, WorstAccuracy float64
	// MinSynced and MaxDetected are extremes over rounds (fault-free
	// nodes only).
	MinSynced, MaxDetected int
	// ConditionViolations counts rounds where the m/u-degradable clock
	// synchronization condition failed.
	ConditionViolations int
}

// RunMission drives the system through the mission.
func (s *System) RunMission(m Mission) (*MissionReport, error) {
	rep := &MissionReport{MinSynced: s.p.N}
	for r := 1; r <= m.Rounds; r++ {
		t := float64(r) * m.Period
		sr := s.SyncRound(t)
		if sr.SkewSynced > rep.WorstSkewSynced {
			rep.WorstSkewSynced = sr.SkewSynced
		}
		if sr.Accuracy > rep.WorstAccuracy {
			rep.WorstAccuracy = sr.Accuracy
		}
		if n := sr.Synced.Len(); n < rep.MinSynced {
			rep.MinSynced = n
		}
		if n := sr.Detected.Len(); n > rep.MaxDetected {
			rep.MaxDetected = n
		}
		if !s.ConditionHolds(sr, t, m.Delta) {
			rep.ConditionViolations++
		}
	}
	return rep, nil
}

// DriftedClocks builds n fault-free clocks with deterministic pseudo-random
// offsets in [0, offAmp] and drifts in [−driftAmp, driftAmp].
func DriftedClocks(n int, seed int64, offAmp, driftAmp float64) []Clock {
	rng := rng.New(seed)
	clocks := make([]Clock, n)
	for i := range clocks {
		clocks[i] = Clock{
			Offset: rng.Float64() * offAmp,
			Drift:  (rng.Float64()*2 - 1) * driftAmp,
		}
	}
	return clocks
}
