package round

import (
	"reflect"
	"sync"
	"testing"

	"degradable/internal/rng"
	"degradable/internal/types"
)

// asyncEcho is a minimal async protocol: node 0 broadcasts its value, every
// node decides the first value it hears (node 0 decides immediately).
type asyncEcho struct {
	id      types.NodeID
	n       int
	v       types.Value
	decided bool
	got     types.Value
}

func (a *asyncEcho) ID() types.NodeID { return a.id }

func (a *asyncEcho) Start() []types.Message {
	if a.id != 0 {
		return nil
	}
	a.decided, a.got = true, a.v
	out := make([]types.Message, 0, a.n-1)
	for i := 1; i < a.n; i++ {
		out = append(out, types.Message{To: types.NodeID(i), Value: a.v})
	}
	return out
}

func (a *asyncEcho) OnDeliver(m types.Message) []types.Message {
	if !a.decided {
		a.decided, a.got = true, m.Value
	}
	return nil
}

func (a *asyncEcho) Decided() (types.Value, bool) { return a.got, a.decided }

func echoFleet(n int, v types.Value) []AsyncNode {
	out := make([]AsyncNode, n)
	for i := range out {
		out[i] = &asyncEcho{id: types.NodeID(i), n: n, v: v}
	}
	return out
}

func TestRunAsyncValidation(t *testing.T) {
	if _, err := RunAsync(nil, AsyncConfig{}); err == nil {
		t.Error("no nodes: expected error")
	}
	if _, err := RunAsync([]AsyncNode{
		&asyncEcho{id: 0, n: 2}, &asyncEcho{id: 0, n: 2},
	}, AsyncConfig{}); err == nil {
		t.Error("duplicate IDs: expected error")
	}
	if _, err := RunAsync([]AsyncNode{&asyncEcho{id: 5, n: 1}}, AsyncConfig{}); err == nil {
		t.Error("out-of-range ID: expected error")
	}
	// A WaitFor member no node can be would leave Terminated unreachable.
	if _, err := RunAsync(echoFleet(4, 7), AsyncConfig{WaitFor: types.NewNodeSet(0, 1, 2, 3, 40)}); err == nil {
		t.Error("out-of-range WaitFor member: expected error")
	}
	// An empty WaitFor names every node, and a NodeSet cannot name node 64.
	if _, err := RunAsync(echoFleet(types.MaxNodeSetID+2, 7), AsyncConfig{}); err == nil {
		t.Error("65 nodes, empty WaitFor: expected error")
	}
	if res, err := RunAsync(echoFleet(types.MaxNodeSetID+2, 7), AsyncConfig{WaitFor: types.NewNodeSet(0, 1)}); err != nil || !res.Terminated {
		t.Errorf("65 nodes, explicit WaitFor: %v, %v", res, err)
	}
}

func TestRunAsyncEchoTerminates(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Policy
	}{
		{"fifo", nil},
		{"reorder", NewReorder(3)},
		{"delay", NewDelay(3, 8)},
		{"adversarial", NewAdversarial(3)},
	} {
		res, err := RunAsync(echoFleet(4, 7), AsyncConfig{Policy: tc.p})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Terminated || res.Starved {
			t.Errorf("%s: terminated=%v starved=%v, want true/false", tc.name, res.Terminated, res.Starved)
		}
		if len(res.Decisions) != 4 {
			t.Fatalf("%s: %d decisions, want 4", tc.name, len(res.Decisions))
		}
		for id, v := range res.Decisions {
			if v != 7 {
				t.Errorf("%s: node %d decided %d, want 7", tc.name, id, v)
			}
		}
		if res.Messages != 3 || res.Delivered != 3 {
			t.Errorf("%s: messages/delivered = %d/%d, want 3/3", tc.name, res.Messages, res.Delivered)
		}
		if res.DeliveriesToDecision[0] != 0 {
			t.Errorf("%s: broadcaster decided at delivery %d, want 0", tc.name, res.DeliveriesToDecision[0])
		}
	}
}

func TestRunAsyncStarvation(t *testing.T) {
	res, err := RunAsync(echoFleet(4, 7), AsyncConfig{Policy: &Starve{Target: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated {
		t.Error("starved run reported Terminated")
	}
	if !res.Starved {
		t.Error("run ended with withheld sends but Starved=false")
	}
	if _, ok := res.Decisions[2]; ok {
		t.Error("starved node decided")
	}
	if len(res.Decisions) != 3 {
		t.Errorf("%d decisions, want 3 (everyone but the victim)", len(res.Decisions))
	}
}

func TestRunAsyncWaitForSubset(t *testing.T) {
	// Waiting only on the non-starved nodes: the run terminates even though
	// node 2 never decides.
	var wait types.NodeSet
	wait = wait.Add(0).Add(1).Add(3)
	res, err := RunAsync(echoFleet(4, 9), AsyncConfig{Policy: &Starve{Target: 2}, WaitFor: wait})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Error("run should terminate once every WaitFor node decided")
	}
}

func TestRunAsyncMaxDeliveries(t *testing.T) {
	// pingPong nodes bounce a message forever and never decide; the budget
	// must end the run with Terminated=false and Starved=false.
	res, err := RunAsync([]AsyncNode{
		&pingPong{id: 0, peer: 1, kick: true},
		&pingPong{id: 1, peer: 0},
	}, AsyncConfig{MaxDeliveries: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated || res.Starved {
		t.Errorf("terminated=%v starved=%v, want false/false (budget exhausted)", res.Terminated, res.Starved)
	}
	if res.Delivered != 10 {
		t.Errorf("delivered %d, want 10", res.Delivered)
	}
}

type pingPong struct {
	id, peer types.NodeID
	kick     bool
}

func (p *pingPong) ID() types.NodeID { return p.id }

func (p *pingPong) Start() []types.Message {
	if !p.kick {
		return nil
	}
	return []types.Message{{To: p.peer, Value: 1}}
}

func (p *pingPong) OnDeliver(m types.Message) []types.Message {
	return []types.Message{{To: p.peer, Value: m.Value + 1}}
}

func (p *pingPong) Decided() (types.Value, bool) { return 0, false }

func TestRunAsyncStampsFromAndDropsMalformed(t *testing.T) {
	// spoofer tries to forge From and to send to itself and out of range;
	// only the well-formed send (with From rewritten) must arrive.
	res, err := RunAsync([]AsyncNode{
		&spoofer{id: 0},
		&asyncEcho{id: 1, n: 2},
	}, AsyncConfig{Trace: nil})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 || res.Delivered != 1 {
		t.Fatalf("messages/delivered = %d/%d, want 1/1", res.Messages, res.Delivered)
	}
	if v, ok := res.Decisions[1]; !ok || v != 99 {
		t.Fatalf("node 1 decided %v/%v, want 99/true", v, ok)
	}
}

type spoofer struct{ id types.NodeID }

func (s *spoofer) ID() types.NodeID { return s.id }

func (s *spoofer) Start() []types.Message {
	return []types.Message{
		{From: 1, To: 1, Value: 99}, // From must be restamped to 0
		{To: 0, Value: 1},           // self-addressed: dropped
		{To: 7, Value: 2},           // out of range: dropped
		{To: -1, Value: 3},          // out of range: dropped
	}
}

func (s *spoofer) OnDeliver(m types.Message) []types.Message {
	if m.From == 1 {
		panic("engine delivered a self-addressed or unstamped message")
	}
	return nil
}

func (s *spoofer) Decided() (types.Value, bool) { return 0, true }

func TestRunAsyncTraceMatchesSchedule(t *testing.T) {
	var a, b []types.Message
	for _, sink := range []*[]types.Message{&a, &b} {
		s := sink
		res, err := RunAsync(echoFleet(5, 3), AsyncConfig{
			Policy: NewAdversarial(11),
			Trace:  func(m types.Message) { *s = append(*s, m) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Terminated {
			t.Fatal("echo run did not terminate")
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n %v\n %v", a, b)
	}
}

// gossip floods: a node answers each of its first `budget` deliveries with a
// send to every peer whose value encodes (sender, how many it has taken), and
// decides when the budget is spent. With reuse set it obeys AsyncNode's
// borrowed-slice rule as stingily as the rule allows: every call returns the
// same backing array, and the first thing the next call does is scribble over
// what the previous one returned.
type gossip struct {
	id     types.NodeID
	n      int
	budget int
	taken  int
	reuse  bool
	buf    []types.Message
}

func (g *gossip) ID() types.NodeID             { return g.id }
func (g *gossip) Decided() (types.Value, bool) { return types.Value(g.taken), g.taken >= g.budget }

func (g *gossip) Start() []types.Message { return g.flood() }

func (g *gossip) OnDeliver(types.Message) []types.Message {
	if g.taken >= g.budget {
		return nil
	}
	g.taken++
	return g.flood()
}

func gossipFleet(n, budget int, reuse bool) []AsyncNode {
	nodes := make([]AsyncNode, n)
	for i := range nodes {
		nodes[i] = &gossip{id: types.NodeID(i), n: n, budget: budget, reuse: reuse}
	}
	return nodes
}

func (g *gossip) flood() []types.Message {
	var out []types.Message
	if g.reuse {
		// A send the run has not copied out by now arrives as this poison:
		// well-formed, so it is enqueued, and recognisable in the trace.
		for i := range g.buf {
			g.buf[i] = types.Message{To: (g.id + 1) % types.NodeID(g.n), Value: -1}
		}
		out = g.buf[:0]
	}
	for i := 0; i < g.n; i++ {
		if to := types.NodeID(i); to != g.id {
			out = append(out, types.Message{To: to, Value: types.Value(int(g.id)*1000 + g.taken)})
		}
	}
	g.buf = out
	return out
}

// TestRunAsyncReusedBufferMatchesOracle proves the run never reads a borrowed
// slice after the next call into the node that lent it: nodes that recycle
// and poison one buffer produce the transcript and result of nodes that
// return a fresh slice per call, under every policy.
func TestRunAsyncReusedBufferMatchesOracle(t *testing.T) {
	const n, budget = 6, 4
	for _, spec := range []string{SchedFIFO, SchedReorder, "delay:8", SchedAdversarial, "starve:2"} {
		run := func(reuse bool) ([]types.Message, *AsyncResult) {
			policy, err := ParsePolicy(spec, 17)
			if err != nil {
				t.Fatal(err)
			}
			var trace []types.Message
			res, err := RunAsync(gossipFleet(n, budget, reuse), AsyncConfig{
				Policy: policy,
				Trace:  func(m types.Message) { trace = append(trace, m) },
			})
			if err != nil {
				t.Fatal(err)
			}
			return trace, res
		}
		gotTrace, got := run(true)
		wantTrace, want := run(false)
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Errorf("%s: reused-buffer transcript differs from the fresh-slice one", spec)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result\n %+v\nfresh-slice oracle\n %+v", spec, got, want)
		}
		if len(gotTrace) < (n-1)*budget {
			t.Errorf("%s: only %d deliveries, the flood never got going", spec, len(gotTrace))
		}
	}
}

// TestRunAsyncPooledSourceMatchesFresh: Reorder and Adversarial borrow
// their source from internal/rng's pool and RunAsync hands it back when the
// run ends, so back-to-back runs re-seed one pooled source. Over 100 seeds,
// their picks must equal those of twins holding a fresh rng.New source.
func TestRunAsyncPooledSourceMatchesFresh(t *testing.T) {
	const n, budget = 5, 6
	run := func(p Policy) []types.Message {
		var trace []types.Message
		if _, err := RunAsync(gossipFleet(n, budget, true), AsyncConfig{
			Policy: p,
			Trace:  func(m types.Message) { trace = append(trace, m) },
		}); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	for seed := int64(1); seed <= 100; seed++ {
		reorder, adversarial := NewReorder(seed), NewAdversarial(seed)
		for _, tc := range []struct {
			name          string
			pooled, fresh Policy
		}{
			{SchedReorder, reorder, &Reorder{rng: rng.New(seed)}},
			{SchedAdversarial, adversarial, &Adversarial{rng: rng.New(seed)}},
		} {
			if got, want := run(tc.pooled), run(tc.fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: pooled-source picks differ from a fresh source's", tc.name, seed)
			}
		}
		if reorder.rng != nil || adversarial.rng != nil {
			t.Fatalf("seed %d: RunAsync kept the policy's source", seed)
		}
	}
}

// TestRunAsyncConcurrentReplays proves the pooled slab and queue storage is
// private to a run: eight goroutines replaying seeded gossip runs side by
// side, each walking the cases from a different start so that runs of
// different sizes hand storage to each other through the pools, reproduce
// the sequential transcripts and results exactly.
func TestRunAsyncConcurrentReplays(t *testing.T) {
	const n, workers = 6, 8
	type replay struct {
		trace []types.Message
		res   *AsyncResult
	}
	type tcase struct {
		spec   string
		seed   int64
		budget int
	}
	var cases []tcase
	for _, spec := range []string{SchedReorder, "delay:3", SchedAdversarial} {
		for seed := int64(1); seed <= 4; seed++ {
			cases = append(cases, tcase{spec, seed, 2 + 3*int(seed)})
		}
	}
	run := func(tc tcase) (replay, error) {
		policy, err := ParsePolicy(tc.spec, tc.seed)
		if err != nil {
			return replay{}, err
		}
		var r replay
		r.res, err = RunAsync(gossipFleet(n, tc.budget, true), AsyncConfig{
			Policy: policy,
			Trace:  func(m types.Message) { r.trace = append(r.trace, m) },
		})
		return r, err
	}
	want := make([]replay, len(cases))
	for i, tc := range cases {
		var err error
		if want[i], err = run(tc); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cases {
				k := (i + w) % len(cases)
				got, err := run(cases[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("worker %d, %+v: concurrent replay differs from the sequential one", w, cases[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
