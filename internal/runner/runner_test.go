package runner_test

import (
	"reflect"
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

// TestWarmMatchesInstance runs one warm instance through fault sets and
// channels in turn and holds every run to a fresh Instance.Execute of it.
func TestWarmMatchesInstance(t *testing.T) {
	p := core.Params{N: 7, M: 2, U: 2, Sender: 1}
	w, err := runner.NewWarm(p)
	if err != nil {
		t.Fatal(err)
	}
	lossy := round.FilterChannel{Keep: func(m types.Message) bool { return m.To != 6 || m.Round != 2 }}
	for k, tc := range []struct {
		faults map[types.NodeID]adversary.Strategy
		ch     round.Channel
	}{
		{nil, nil},
		{map[types.NodeID]adversary.Strategy{3: adversary.Lie{Value: 9}}, nil},
		{map[types.NodeID]adversary.Strategy{1: adversary.Silent{}, 4: adversary.Crash{After: 1}}, lossy},
		{map[types.NodeID]adversary.Strategy{3: adversary.Honest{}}, round.PerfectChannel{}},
		{nil, lossy},
	} {
		value := types.Value(100 + k)
		res, err := runner.Instance{Protocol: p, SenderValue: value, Strategies: tc.faults, Channel: tc.ch}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		var faults []runner.Fault
		for id, s := range tc.faults {
			faults = append(faults, runner.Fault{Node: id, Strategy: s})
		}
		got, err := w.Run(value, nil, faults, tc.ch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Decisions, res.Decisions) || got.Messages != res.Messages ||
			got.Delivered != res.Delivered || got.Bytes != res.Bytes || !reflect.DeepEqual(got.PerRound, res.PerRound) {
			t.Errorf("run %d: warm %+v, fresh %+v", k, got, res)
		}
	}
	if _, err := w.Run(1, nil, []runner.Fault{{Node: 7, Strategy: adversary.Silent{}}}, nil); err == nil {
		t.Error("out-of-range fault accepted")
	}
	if _, err := runner.NewWarm(core.Params{N: 3, M: 1, U: 2}); err == nil {
		t.Error("infeasible shape accepted")
	}
}
