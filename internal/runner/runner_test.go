package runner_test

import (
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/round"
	"degradable/internal/runner"
	"degradable/internal/types"
)

func TestRunNilProtocol(t *testing.T) {
	if _, _, err := (runner.Instance{}).Run(); err == nil {
		t.Error("nil protocol should error")
	}
}

func TestFaulty(t *testing.T) {
	in := runner.Instance{Strategies: map[types.NodeID]adversary.Strategy{
		1: adversary.Silent{},
		3: adversary.Silent{},
	}}
	if got := in.Faulty(); got != types.NewNodeSet(1, 3) {
		t.Errorf("Faulty = %v", got)
	}
}

func TestRunEndToEnd(t *testing.T) {
	in := runner.Instance{
		Protocol:    core.Params{N: 5, M: 1, U: 2},
		SenderValue: 7,
		Strategies: map[types.NodeID]adversary.Strategy{
			2: adversary.Lie{Value: 9},
		},
		RecordViews: true,
	}
	res, verdict, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.OK {
		t.Errorf("verdict = %+v", verdict)
	}
	if res.Views == nil {
		t.Error("views not recorded")
	}
	if res.Decisions[1] != 7 || res.Decisions[3] != 7 || res.Decisions[4] != 7 {
		t.Errorf("decisions = %v", res.Decisions)
	}
}

func TestRunWithChannel(t *testing.T) {
	in := runner.Instance{
		Protocol:    core.Params{N: 5, M: 1, U: 2},
		SenderValue: 7,
		Channel:     round.FilterChannel{Keep: func(types.Message) bool { return true }},
	}
	if _, verdict, err := in.Run(); err != nil || !verdict.OK {
		t.Errorf("err=%v verdict=%+v", err, verdict)
	}
}

func TestRunInvalidParams(t *testing.T) {
	in := runner.Instance{Protocol: core.Params{N: 3, M: 1, U: 2}}
	if _, _, err := in.Run(); err == nil {
		t.Error("invalid protocol params should error")
	}
}
