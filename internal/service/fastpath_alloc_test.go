//go:build !race

package service

import (
	"context"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/types"
)

// TestFastPathZeroAlloc is the steady-state guard for the optimistic fast
// path: a warm Slot driving fault-free requests through a single shard must
// not allocate anywhere — submit, admission, pool dispatch, response.
// Sampled spec checks are disabled (the verdict's Classes map allocates by
// design); the sampling seam is exercised by the equivalence tests.
func TestFastPathZeroAlloc(t *testing.T) {
	svc := New(Config{Shards: 1, SpecSample: -1})
	defer svc.Close()
	ctx := context.Background()
	sl := svc.NewSlot()
	req := Request{N: 7, M: 1, U: 2, Value: 42}
	for i := 0; i < 100; i++ { // warm the pool and the slot
		if _, err := sl.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := sl.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm fast path allocates %.1f times per op, want 0", allocs)
	}
}

// TestBatchArenaZeroAlloc is the guard for the full-path arena: a warmed
// complement re-armed through Engine.Restart and driven to decisions must
// not allocate — trees reset in place, outbox templates and path-ranker
// tables are reused, and the engine keeps both of its inbox sets and its
// result view across Restart. The deep case is the benchmark's serve_deep
// shape with its one non-sender fault: 8 190 messages through the inboxes
// per run, so a set dropped or regrown on Restart cannot hide.
func TestBatchArenaZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params core.Params
		faulty int // receiver wrapped two-faced; -1 for none
	}{
		{"shallow", core.Params{N: 7, M: 1, U: 2}, -1},
		{"deep", core.Params{N: 11, M: 3, U: 4}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := tc.params
			nodes, err := params.Nodes(42)
			if err != nil {
				t.Fatal(err)
			}
			honest := append([]round.Node(nil), nodes...)
			// Boxed once here: converting the struct at each Reset would
			// be the run's one allocation.
			var strat adversary.Strategy = adversary.TwoFaced{A: types.NewNodeSet(1, 2), ValueA: 99, ValueB: 7}
			var byz *adversary.Node
			if tc.faulty >= 0 {
				n, depth, sender := params.System()
				if byz, err = adversary.NewNode(n, depth, sender, types.NodeID(tc.faulty), 42, strat); err != nil {
					t.Fatal(err)
				}
				nodes[tc.faulty] = byz
			}
			eng, err := round.NewEngine(nodes, round.Config{Rounds: params.Depth()})
			if err != nil {
				t.Fatal(err)
			}
			first := true
			run := func() {
				for _, nd := range honest {
					nd.(*relay.Node).Reset(42)
				}
				if byz != nil {
					byz.Reset(42, strat)
				}
				if !first {
					if err := eng.Restart(nodes); err != nil {
						t.Fatal(err)
					}
				}
				first = false
				if err := (round.Reference{}).Drive(eng); err != nil {
					t.Fatal(err)
				}
				for i, nd := range nodes {
					if got := nd.Decide(); got != 42 && i != tc.faulty {
						t.Fatalf("node %d decided %s, want 42", i, got)
					}
				}
			}
			run() // builds templates and ranker tables
			run() // first Restart pass
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("warm Restart+Drive+Decide allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestSenderProbeAllocs guards the sender-probe fast path. A silent sender
// (zero-size strategy, so the per-request rebuild boxes for free) must be
// allocation-free end to end; a crash sender pays only the strategy box.
func TestSenderProbeAllocs(t *testing.T) {
	cases := []struct {
		name  string
		kind  adversary.Kind
		bound float64
	}{
		{"silent sender zero alloc", adversary.KindSilent, 0},
		{"crash sender strategy box only", adversary.KindCrash, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{Shards: 1, SpecSample: -1})
			defer svc.Close()
			ctx := context.Background()
			sl := svc.NewSlot()
			req := Request{N: 7, M: 1, U: 2, Value: 42,
				Faults: []FaultSpec{{Node: 0, Kind: tc.kind}}}
			for i := 0; i < 100; i++ {
				if _, err := sl.Do(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
			if st := svc.Stats(); st.FastFallbacks != 0 {
				t.Fatalf("sender %s fell back %d times; probe must hit", tc.kind, st.FastFallbacks)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := sl.Do(ctx, req); err != nil {
					t.Fatal(err)
				}
			}); allocs > tc.bound {
				t.Errorf("sender-probe path allocates %.1f times per op, want ≤ %g", allocs, tc.bound)
			}
		})
	}
}
