package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/runner"
	"degradable/internal/types"
)

// runReference executes req on the lockstep runner the rest of the repo
// trusts, returning the decisions the service must reproduce.
func runReference(t *testing.T, req Request) map[types.NodeID]types.Value {
	t.Helper()
	strategies := make(map[types.NodeID]adversary.Strategy, len(req.Faults))
	for _, f := range req.Faults {
		s, err := f.Strategy(req.N)
		if err != nil {
			t.Fatalf("build strategy: %v", err)
		}
		strategies[f.Node] = s
	}
	in := runner.Instance{
		Protocol:    core.Params{N: req.N, M: req.M, U: req.U, Sender: req.Sender},
		SenderValue: req.Value,
		Strategies:  strategies,
	}
	res, verdict, err := in.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !verdict.OK {
		t.Fatalf("reference run violates spec: %s", verdict.Reason)
	}
	return res.Decisions
}

// TestServiceMatchesRunner cross-checks the pooled, batched, sequential
// service path against the lockstep runner across shapes and fault mixes,
// including repeated reuse of the same pooled instance.
func TestServiceMatchesRunner(t *testing.T) {
	svc := New(Config{Shards: 2, Batch: 8, SpecSample: 1})
	defer svc.Close()

	reqs := []Request{
		{N: 5, M: 1, U: 2, Value: 42},
		{N: 5, M: 1, U: 2, Value: 43, Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindLie, Value: 99}}},
		{N: 5, M: 1, U: 2, Value: 44, Faults: []adversary.FaultSpec{
			{Node: 2, Kind: adversary.KindTwoFaced, Value: 77},
			{Node: 4, Kind: adversary.KindSilent}}},
		{N: 5, M: 1, U: 2, Value: 45, Faults: []adversary.FaultSpec{{Node: 0, Kind: adversary.KindLie, Value: 88}}},
		{N: 7, M: 1, U: 2, Value: 46, Faults: []adversary.FaultSpec{{Node: 1, Kind: adversary.KindCrash}}},
		{N: 7, M: 2, U: 2, Value: 47, Faults: []adversary.FaultSpec{
			{Node: 3, Kind: adversary.KindRandom, Value: 66, Seed: 7},
			{Node: 5, Kind: adversary.KindLie, Value: 66}}},
		{N: 4, M: 0, U: 2, Value: 48, Faults: []adversary.FaultSpec{{Node: 2, Kind: adversary.KindTwoFaced, Value: 55}}},
		{N: 6, M: 1, U: 3, Sender: 2, Value: 49, Faults: []adversary.FaultSpec{{Node: 0, Kind: adversary.KindSilent}}},
	}
	// Three passes so every shape's pool is reused with different values
	// and fault sets — a dirty Reset would surface as a mismatch.
	for pass := 0; pass < 3; pass++ {
		for i, req := range reqs {
			req.Value += types.Value(1000 * pass)
			want := runReference(t, req)
			resp, err := svc.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("pass %d req %d: %v", pass, i, err)
			}
			if len(resp.Decisions) != req.N {
				t.Fatalf("pass %d req %d: %d decisions, want %d", pass, i, len(resp.Decisions), req.N)
			}
			for id, w := range want {
				if got := resp.Decisions[int(id)]; got != w {
					t.Errorf("pass %d req %d node %d: decided %s, want %s", pass, i, int(id), got, w)
				}
			}
			if !resp.Checked || !resp.OK {
				t.Errorf("pass %d req %d: Checked=%v OK=%v (SpecSample=1 must check all), reason=%q",
					pass, i, resp.Checked, resp.OK, resp.Reason)
			}
		}
	}
	st := svc.Stats()
	if st.SpecViolations != 0 {
		t.Fatalf("spec violations: %d", st.SpecViolations)
	}
	if st.Completed != uint64(3*len(reqs)) {
		t.Fatalf("completed = %d, want %d", st.Completed, 3*len(reqs))
	}
	if st.SpecChecked != st.Completed {
		t.Fatalf("checked = %d, want %d", st.SpecChecked, st.Completed)
	}
}

// TestConditionSelection verifies the cheap per-response condition matches
// the regime arithmetic of the spec.
func TestConditionSelection(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	cases := []struct {
		faults []adversary.FaultSpec
		want   string
	}{
		{nil, "D.1"},
		{[]adversary.FaultSpec{{Node: 3, Kind: adversary.KindSilent}}, "D.1"},
		{[]adversary.FaultSpec{{Node: 0, Kind: adversary.KindLie, Value: 9}}, "D.2"},
		{[]adversary.FaultSpec{{Node: 1, Kind: adversary.KindSilent}, {Node: 2, Kind: adversary.KindSilent}}, "D.3"},
		{[]adversary.FaultSpec{{Node: 0, Kind: adversary.KindSilent}, {Node: 2, Kind: adversary.KindSilent}}, "D.4"},
		{[]adversary.FaultSpec{{Node: 1, Kind: adversary.KindSilent}, {Node: 2, Kind: adversary.KindSilent},
			{Node: 3, Kind: adversary.KindSilent}}, "none"},
	}
	for i, tc := range cases {
		resp, err := svc.Do(context.Background(), Request{N: 5, M: 1, U: 2, Value: 7, Faults: tc.faults})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if resp.Condition != tc.want {
			t.Errorf("case %d: condition %s, want %s", i, resp.Condition, tc.want)
		}
	}
}

// TestDegradedFlag pins the Degraded semantics: a clean run is not
// degraded; a two-faced sender beyond m (but within u) splits the
// receivers and must be flagged.
func TestDegradedFlag(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	clean, err := svc.Do(context.Background(), Request{N: 5, M: 1, U: 2, Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded {
		t.Error("fault-free run flagged degraded")
	}
	// Two silent receivers (f=2 > m=1) force fault-free receivers to vote
	// with insufficient support: some decide V_d.
	deg, err := svc.Do(context.Background(), Request{N: 5, M: 1, U: 2, Value: 7, Faults: []adversary.FaultSpec{
		{Node: 1, Kind: adversary.KindSilent}, {Node: 2, Kind: adversary.KindSilent}}})
	if err != nil {
		t.Fatal(err)
	}
	hasDefault := false
	for i, d := range deg.Decisions {
		if i != 0 && i != 1 && i != 2 && d.IsDefault() {
			hasDefault = true
		}
	}
	if hasDefault && !deg.Degraded {
		t.Error("default decisions present but not flagged degraded")
	}
}

// TestValidateRejects covers admission-time rejection.
func TestValidateRejects(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	cases := []Request{
		{N: 4, M: 1, U: 2, Value: 1}, // N ≤ 2m+u
		{N: 5, M: 2, U: 1, Value: 1}, // m > u
		{N: 5, M: 1, U: 2, Value: 1, Faults: []adversary.FaultSpec{{Node: 9}}},            // node out of range
		{N: 5, M: 1, U: 2, Value: 1, Faults: []adversary.FaultSpec{{Node: 2}, {Node: 2}}}, // armed twice
		{N: 5, M: 1, U: 2, Sender: 7, Value: 1},                                           // sender out of range
		{N: 80, M: 1, U: 2, Value: 1},                                                     // beyond node-set limit
	}
	for i, req := range cases {
		if _, err := svc.Submit(req); err == nil {
			t.Errorf("case %d: invalid request admitted", i)
		} else if !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: error %v does not wrap ErrInvalid", i, err)
		}
	}
	// An unknown fault kind is refused at admission like every other
	// malformed fault, before any work: it is neither accepted nor queued.
	before := svc.Stats()
	for _, kind := range []adversary.Kind{0, 6, 99} {
		_, err := svc.Do(context.Background(), Request{N: 5, M: 1, U: 2, Value: 1,
			Faults: []adversary.FaultSpec{{Node: 1, Kind: kind}}})
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("unknown fault kind %d: error %v does not wrap ErrInvalid", int(kind), err)
		}
	}
	if after := svc.Stats(); after != before {
		t.Errorf("unknown fault kinds moved the counters: %+v -> %+v", before, after)
	}
}

// armedReq is a request with a fault armed on a receiver: it queues on a
// shard and runs the full exchange, where a fault-free one is decided at
// submission.
var armedReq = Request{N: 5, M: 1, U: 2, Value: 7, Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindSilent}}}

// TestBackpressure pins the bounded-queue contract deterministically: with
// the shard goroutine not yet running, admission succeeds exactly
// QueueDepth times, then rejects with ErrOverloaded without blocking; a
// drain answers everything that was admitted. A fault-free request on the
// full shard is still answered, since it never queues.
func TestBackpressure(t *testing.T) {
	const depth = 4
	svc := newUnstarted(Config{Shards: 1, QueueDepth: depth, Batch: 2})
	req := armedReq

	var admitted []<-chan Outcome
	for i := 0; i < depth; i++ {
		done, err := svc.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		admitted = append(admitted, done)
	}
	rejected := make(chan error, 1)
	go func() {
		_, err := svc.Submit(req)
		rejected <- err
	}()
	select {
	case err := <-rejected:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("full queue returned %v, want ErrOverloaded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked on a full queue")
	}
	st := svc.Stats()
	if st.Accepted != depth || st.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want %d/1", st.Accepted, st.Rejected, depth)
	}
	done, err := svc.Submit(Request{N: 5, M: 1, U: 2, Value: 7})
	if err != nil {
		t.Fatalf("fault-free request on a full queue: %v", err)
	}
	select {
	case out := <-done:
		if out.Err != nil || out.Resp.Decisions[1] != 7 {
			t.Fatalf("fault-free request on a full queue: %+v", out)
		}
	default:
		t.Fatal("fault-free request not decided at submission")
	}

	// Shutdown drain: run the shard loop with stop already signalled — it
	// must answer every admitted request before exiting.
	svc.closed.Store(true)
	close(svc.shards[0].stop)
	svc.start()
	svc.wg.Wait()
	close(svc.term)
	for i, done := range admitted {
		select {
		case out := <-done:
			if out.Err != nil {
				t.Errorf("drained request %d: %v", i, out.Err)
			}
		default:
			t.Errorf("request %d admitted but never answered", i)
		}
	}
}

// TestSlotKeepsItsShard pins admission's placement: slots are dealt to the
// shards round-robin as they are made and then stay put, however the callers'
// submissions interleave; one-shot Submits are dealt round-robin each. A
// fault-free request never queues. The shard goroutines are not running, so
// the test reads the queues itself.
func TestSlotKeepsItsShard(t *testing.T) {
	svc := newUnstarted(Config{Shards: 2, QueueDepth: 8})
	req := armedReq
	queued := func() (at int, got *task) {
		at = -1
		for k, sh := range svc.shards {
			select {
			case got = <-sh.in:
				if at >= 0 {
					t.Fatalf("one submission queued on shards %d and %d", at, k)
				}
				at = k
			default:
			}
		}
		return at, got
	}

	a, b := svc.NewSlot(), svc.NewSlot()
	home := map[*Slot]int{a: 0, b: 1}
	// Dealt per request, the third submission would put b on a's shard.
	for i, sl := range []*Slot{a, b, b, a, a, b, a} {
		if err := sl.Submit(req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if at, got := queued(); at != home[sl] || got != sl.t {
			t.Fatalf("submit %d queued on shard %d, want the slot's own shard %d", i, at, home[sl])
		}
	}
	// An abandoned request takes the task with it, not the placement.
	b.abandon()
	if err := b.Submit(req); err != nil {
		t.Fatal(err)
	}
	if at, _ := queued(); at != home[b] {
		t.Fatalf("after abandon queued on shard %d, want %d", at, home[b])
	}

	var last int
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(req); err != nil {
			t.Fatal(err)
		}
		at, _ := queued()
		if i > 0 && at == last {
			t.Fatalf("one-shot submits %d and %d both queued on shard %d", i-1, i, at)
		}
		last = at
	}

	for i, sl := range []*Slot{a, b, svc.NewSlot()} {
		if err := sl.Submit(Request{N: 5, M: 1, U: 2, Value: 7}); err != nil {
			t.Fatal(err)
		}
		if at, _ := queued(); at != -1 {
			t.Fatalf("fault-free submit %d queued on shard %d", i, at)
		}
		if out := <-sl.Outcome(); out.Err != nil {
			t.Fatalf("fault-free submit %d: %v", i, out.Err)
		}
	}
}

// TestCloseDrains exercises the live shutdown path: requests admitted
// before Close are all answered.
func TestCloseDrains(t *testing.T) {
	svc := New(Config{Shards: 2, QueueDepth: 256})
	req := armedReq
	var chans []<-chan Outcome
	for i := 0; i < 100; i++ {
		done, err := svc.Submit(req)
		if errors.Is(err, ErrOverloaded) {
			continue
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, done)
	}
	svc.Close()
	for i, done := range chans {
		select {
		case out := <-done:
			if out.Err != nil {
				t.Errorf("request %d: %v", i, out.Err)
			}
		default:
			t.Errorf("request %d admitted before Close but unanswered after", i)
		}
	}
	if _, err := svc.Submit(req); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close submit: %v, want ErrClosed", err)
	}
	if _, err := svc.Do(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Do: %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestConcurrentSubmitters hammers one service from many goroutines while
// the race detector watches; every accepted request must be answered and
// consistent.
func TestConcurrentSubmitters(t *testing.T) {
	svc := New(Config{Shards: 4, QueueDepth: 64, Batch: 16, SpecSample: 4})
	defer svc.Close()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				req := Request{N: 5, M: 1, U: 2, Value: types.Value(w*1000 + i)}
				if i%3 == 0 {
					req.Faults = []adversary.FaultSpec{{Node: types.NodeID(1 + (i % 4)), Kind: adversary.KindLie, Value: 999}}
				}
				resp, err := svc.Do(ctx, req)
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d req %d: %w", w, i, err)
					return
				}
				if len(resp.Decisions) != 5 {
					errs <- fmt.Errorf("worker %d req %d: %d decisions", w, i, len(resp.Decisions))
					return
				}
				// A fault-free or single-fault 1/2 instance is within m..u:
				// fault-free receivers must agree on the sender's value.
				for id := 2; id < 5; id++ {
					if req.Faults != nil && int(req.Faults[0].Node) == id {
						continue
					}
					if resp.Decisions[id] != req.Value {
						errs <- fmt.Errorf("worker %d req %d node %d: %s, want %s",
							w, i, id, resp.Decisions[id], req.Value)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := svc.Stats(); st.SpecViolations != 0 {
		t.Fatalf("spec violations under concurrency: %d", st.SpecViolations)
	}
}

// TestDoContextCancel confirms a cancelled waiter returns promptly while
// the instance still executes and is accounted. The request queues on a
// shard that is not yet running, so its outcome cannot race the
// cancellation.
func TestDoContextCancel(t *testing.T) {
	svc := newUnstarted(Config{Shards: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Do(ctx, armedReq); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: %v, want context.Canceled", err)
	}
	svc.start()
	svc.Close()
	if st := svc.Stats(); st.Accepted != 1 || st.Completed != 1 {
		t.Fatalf("accepted=%d completed=%d, want 1/1", st.Accepted, st.Completed)
	}
}

// TestPerTenantShedAccounting pins satellite contract: queue-full
// rejections are counted per tenant (never a silent drop) and surface in
// both the telemetry snapshot and the Sheds family.
func TestPerTenantShedAccounting(t *testing.T) {
	svc := newUnstarted(Config{Shards: 1, QueueDepth: 2, Batch: 2})
	req := armedReq
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, tenant := range []uint32{9, 9, 3} {
		r := req
		r.Tenant = tenant
		if _, err := svc.Submit(r); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("tenant %d: err=%v, want ErrOverloaded", tenant, err)
		}
	}
	if got := svc.Sheds().Get(TenantKey(9)).Load(); got != 2 {
		t.Fatalf("tenant 9 sheds = %d, want 2", got)
	}
	snap := svc.Telemetry()
	if snap.Counters["admission_shed_total"] != 3 {
		t.Fatalf("admission_shed_total = %d, want 3", snap.Counters["admission_shed_total"])
	}
	if snap.Counters[`admission_shed_total{tenant="3"}`] != 1 {
		t.Fatalf("per-tenant series missing: %v", snap.Counters)
	}

	// Drain so the admitted requests are answered and goroutines exit.
	svc.closed.Store(true)
	close(svc.shards[0].stop)
	svc.start()
	svc.wg.Wait()
	close(svc.term)
}
