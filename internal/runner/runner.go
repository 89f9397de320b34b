// Package runner composes a protocol, a fault set armed with adversary
// strategies and the synchronous engine into runs: Instance, built fresh and
// judged by the executable specification for experiments and tests, and
// Warm, the reusable BYZ(m,m) instance the service and chaos run on.
package runner

import (
	"fmt"

	"degradable/internal/adversary"
	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// Protocol abstracts an agreement protocol instance (degradable BYZ, OM,
// Crusader, SM). Implemented by core.Params, om.Params, crusader.Params,
// sm.Params, and relay.Protocol for a relay exchange with any rule.
type Protocol interface {
	// System returns the node count, relay depth (= message rounds), and
	// sender identity.
	System() (n, depth int, sender types.NodeID)
	// Thresholds returns the (m, u) pair the protocol promises, used to
	// select the applicable spec condition.
	Thresholds() (m, u int)
	// Nodes returns the fully honest node complement with the sender
	// holding value.
	Nodes(value types.Value) ([]round.Node, error)
}

// Instance is one configured run.
type Instance struct {
	// Protocol is the agreement protocol under test.
	Protocol Protocol
	// SenderValue is the (honest) sender's input.
	SenderValue types.Value
	// Strategies arms the fault set: every key is faulty.
	Strategies map[types.NodeID]adversary.Strategy
	// Channel optionally interposes on deliveries (nil = perfect network).
	Channel round.Channel
	// RecordViews captures per-node transcripts.
	RecordViews bool
	// Trace, when non-nil, observes every delivered message.
	Trace func(types.Message)
	// Sink, when non-nil, receives structured round events.
	Sink obs.Sink
}

// Faulty returns the fault set implied by the armed strategies.
func (in Instance) Faulty() types.NodeSet {
	var s types.NodeSet
	for id := range in.Strategies {
		s = s.Add(id)
	}
	return s
}

// Run executes the instance and checks the outcome against the spec.
func (in Instance) Run() (*round.Result, spec.Verdict, error) {
	res, err := in.Execute()
	if err != nil {
		return nil, spec.Verdict{}, err
	}
	m, u := in.Protocol.Thresholds()
	_, _, sender := in.Protocol.System()
	verdict := spec.Check(spec.Execution{
		M: m, U: u,
		Sender:      sender,
		SenderValue: in.SenderValue,
		Faulty:      in.Faulty(),
		Decisions:   res.Decisions,
	})
	return res, verdict, nil
}

// Execute runs the instance under round.Reference without judging it, for
// callers that check the result their own way.
func (in Instance) Execute() (*round.Result, error) {
	if in.Protocol == nil {
		return nil, fmt.Errorf("runner: nil protocol")
	}
	n, depth, sender := in.Protocol.System()
	nodes, err := in.Protocol.Nodes(in.SenderValue)
	if err != nil {
		return nil, err
	}
	if err := adversary.Wrap(nodes, n, depth, sender, in.SenderValue, in.Strategies); err != nil {
		return nil, err
	}
	return round.Run(nodes, round.Config{
		Rounds:      depth,
		Channel:     in.Channel,
		RecordViews: in.RecordViews,
		Trace:       in.Trace,
		Sink:        in.Sink,
	}, round.Reference{})
}
