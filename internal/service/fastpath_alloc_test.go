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
// not allocate — trees reset in place, outbox templates, path-ranker and
// relay-plan tables are reused, and the engine keeps both of its inbox sets
// and its result view across Restart. The deep case is the benchmark's
// serve_deep shape with one two-faced non-sender fault, rotated over all ten
// receivers across runs as the benchmark's requests rotate it, so the
// wrapper taking slabs moves every run; the fault omits nothing, so every
// run owes 10 + 100 + 900 + 7 200 = 8 210 messages (core.Cost), and a set
// dropped or regrown on Restart cannot hide.
func TestBatchArenaZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		params   core.Params
		faulty   []int // receivers wrapped two-faced in turn; none for a fault-free run
		messages int
	}{
		{"shallow", core.Params{N: 7, M: 1, U: 2}, nil, 6 + 36},
		{"deep", core.Params{N: 11, M: 3, U: 4}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8210},
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
			byz := make(map[int]*adversary.Node, len(tc.faulty))
			n, depth, sender := params.System()
			for _, id := range tc.faulty {
				if byz[id], err = adversary.NewNode(n, depth, sender, types.NodeID(id), 42, strat); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := round.NewEngine(nodes, round.Config{Rounds: params.Depth()})
			if err != nil {
				t.Fatal(err)
			}
			runs := 0
			run := func() {
				faulty := -1
				if len(tc.faulty) > 0 {
					faulty = tc.faulty[runs%len(tc.faulty)]
				}
				copy(nodes, honest)
				for _, nd := range honest {
					nd.(*relay.Node).Reset(42)
				}
				if faulty >= 0 {
					byz[faulty].Reset(42, strat)
					nodes[faulty] = byz[faulty]
				}
				if runs > 0 {
					if err := eng.Restart(nodes); err != nil {
						t.Fatal(err)
					}
				}
				runs++
				if err := (round.Reference{}).Drive(eng); err != nil {
					t.Fatal(err)
				}
				res := eng.Finalize()
				if res.Messages != tc.messages {
					t.Fatalf("run with faulty %d sent %d messages, want %d", faulty, res.Messages, tc.messages)
				}
				for i, nd := range nodes {
					if got := nd.Decide(); got != 42 && i != faulty {
						t.Fatalf("node %d decided %s with %d faulty, want 42", i, got, faulty)
					}
				}
			}
			// Two passes over the rotation build every template, ranker
			// and relay table and take every peer set once under Restart.
			for i := 0; i < 2*len(tc.faulty)+2; i++ {
				run()
			}
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
				Faults: []adversary.FaultSpec{{Node: 0, Kind: tc.kind}}}
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

// TestRandomFaultReseedZeroAlloc pins the random-fault path at zero
// allocations once warm: the pool's RandomLie is re-seeded per request, not
// rebuilt, so a new seed each run costs no source. The fault sits on a
// receiver, so every run takes the full exchange.
func TestRandomFaultReseedZeroAlloc(t *testing.T) {
	svc := New(Config{Shards: 1, SpecSample: -1})
	defer svc.Close()
	ctx := context.Background()
	sl := svc.NewSlot()
	req := Request{N: 7, M: 1, U: 2, Value: 42,
		Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindRandom, Value: 99}}}
	for i := 0; i < 100; i++ {
		req.Faults[0].Seed = int64(i)
		if _, err := sl.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	seed := int64(1000)
	if allocs := testing.AllocsPerRun(200, func() {
		seed++
		req.Faults[0].Seed = seed
		if _, err := sl.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm random-fault path allocates %.1f times per op, want 0", allocs)
	}
}
