package acast

import (
	"testing"

	"degradable/internal/obs"
	"degradable/internal/round"
	"degradable/internal/types"
)

func fleet(p Params, bcasters types.NodeSet, inputs map[types.NodeID]types.Value, counters *obs.CounterSet) []round.AsyncNode {
	nodes := make([]round.AsyncNode, p.N)
	for i := range nodes {
		id := types.NodeID(i)
		nodes[i] = NewNode(Config{
			ID: id, Params: p, Broadcasters: bcasters, Input: inputs[id], Counters: counters,
		})
	}
	return nodes
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{{N: 4, F: 1}, {N: 1, F: 0}, {N: 7, F: 2}, {N: 64, F: 21}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	// N beyond the NodeSet tally width must be rejected: quorums over IDs
	// > 63 could never assemble, so runs would silently never terminate.
	for _, p := range []Params{{N: 0, F: 0}, {N: 3, F: 1}, {N: 6, F: 2}, {N: 4, F: -1}, {N: 65, F: 1}, {N: 100, F: 33}} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: accepted", p)
		}
	}
}

// TestThresholdSweep exhaustively checks the quorum arithmetic for every
// valid system with n ≤ 5, f ≤ 1, including the intersection properties the
// safety argument rests on.
func TestThresholdSweep(t *testing.T) {
	valid := 0
	for n := 1; n <= 5; n++ {
		for f := 0; f <= 1; f++ {
			p := Params{N: n, F: f}
			if p.Validate() != nil {
				continue
			}
			valid++
			if got, want := p.EchoQuorum(), (n+f)/2+1; got != want {
				t.Errorf("n=%d f=%d: EchoQuorum=%d, want %d", n, f, got, want)
			}
			if got, want := p.ReadyAmplify(), f+1; got != want {
				t.Errorf("n=%d f=%d: ReadyAmplify=%d, want %d", n, f, got, want)
			}
			if got, want := p.ReadyQuorum(), 2*f+1; got != want {
				t.Errorf("n=%d f=%d: ReadyQuorum=%d, want %d", n, f, got, want)
			}
			// Two echo quorums over n nodes with f Byzantine must share an
			// honest node: 2·quorum − n > f.
			if 2*p.EchoQuorum()-n <= f {
				t.Errorf("n=%d f=%d: echo quorums can be honest-disjoint", n, f)
			}
			// An echo quorum must be reachable with f echoes withheld.
			if p.EchoQuorum() > n-f {
				t.Errorf("n=%d f=%d: echo quorum %d unreachable with %d honest", n, f, p.EchoQuorum(), n-f)
			}
			// A ready quorum contains at least one honest amplifier chain:
			// 2f+1 readies ⇒ ≥ f+1 honest, and f+1 honest readies amplify
			// every other honest node, so the certificate is total.
			if p.ReadyQuorum()-f < p.ReadyAmplify() {
				t.Errorf("n=%d f=%d: ready certificate not self-amplifying", n, f)
			}
			if p.ReadyQuorum() > n-f {
				t.Errorf("n=%d f=%d: ready quorum %d unreachable with %d honest", n, f, p.ReadyQuorum(), n-f)
			}
		}
	}
	if valid != 7 { // n=1..5 f=0, plus n=4,5 f=1
		t.Errorf("sweep covered %d systems, want 7", valid)
	}
}

// TestThresholdBehavior drives a single node one message at a time through
// every echo/ready threshold boundary for each valid n ≤ 5, f ≤ 1 system:
// one echo (or ready) short of a quorum must not trigger the transition,
// the quorum-completing message must.
func TestThresholdBehavior(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for f := 0; f <= 1; f++ {
			p := Params{N: n, F: f}
			if p.Validate() != nil || n < 2 {
				continue
			}
			// Node 1 observes broadcaster 0's instance without having seen
			// the init (so only quorums can move it).
			nd := NewNode(Config{ID: 1, Params: p})
			path := types.Path{0}
			countReady := func(ms []types.Message) int {
				c := 0
				for _, m := range ms {
					if Kind(m.Round) == KindReady {
						c++
					}
				}
				return c
			}
			// Feed echoes from distinct senders; the ready broadcast must
			// appear exactly when the EchoQuorum-th distinct echo lands.
			sent := 0
			for s := 0; s < n; s++ {
				out := nd.OnDeliver(types.Message{From: types.NodeID(s), To: 1, Round: KindEcho, Path: path, Value: 7})
				sent++
				if sent < p.EchoQuorum() && countReady(out) != 0 {
					t.Errorf("n=%d f=%d: ready after %d echoes (quorum %d)", n, f, sent, p.EchoQuorum())
				}
				if sent == p.EchoQuorum() && countReady(out) == 0 {
					t.Errorf("n=%d f=%d: no ready at echo quorum %d", n, f, p.EchoQuorum())
				}
				// Duplicate echo from the same sender must not advance the tally.
				if dup := nd.OnDeliver(types.Message{From: types.NodeID(s), To: 1, Round: KindEcho, Path: path, Value: 7}); countReady(dup) != 0 {
					t.Errorf("n=%d f=%d: duplicate echo triggered ready", n, f)
				}
				if sent == p.EchoQuorum() {
					break
				}
			}

			// Fresh node: readies alone must amplify at f+1 and certify
			// (deliver) at exactly 2f+1 distinct readies.
			nd = NewNode(Config{ID: 1, Params: p})
			for s := 0; s < n; s++ {
				out := nd.OnDeliver(types.Message{From: types.NodeID(s), To: 1, Round: KindReady, Path: path, Value: 9})
				got := s + 1
				if got < p.ReadyAmplify() && countReady(out) != 0 {
					t.Errorf("n=%d f=%d: amplified after %d readies (threshold %d)", n, f, got, p.ReadyAmplify())
				}
				if got == p.ReadyAmplify() && countReady(out) == 0 {
					t.Errorf("n=%d f=%d: no amplification at f+1=%d readies", n, f, p.ReadyAmplify())
				}
				delivered := len(nd.Delivered()) == 1
				if got < p.ReadyQuorum() && delivered {
					t.Errorf("n=%d f=%d: delivered after %d readies (certificate %d)", n, f, got, p.ReadyQuorum())
				}
				if got == p.ReadyQuorum() && !delivered {
					t.Errorf("n=%d f=%d: no delivery at certificate %d", n, f, p.ReadyQuorum())
				}
			}
			if v, ok := nd.Delivered()[0]; !ok || v != 9 {
				t.Errorf("n=%d f=%d: delivered %v/%v, want 9/true", n, f, v, ok)
			}
		}
	}
}

// TestVoteTalliesBoundedBySenders: the value in an echo or ready is
// peer-controlled, so a tally keyed by it must not grow with what one sender
// invents. Only a sender's first vote of each kind counts, which caps a
// tally at n entries — and must not cost the honest votes that follow.
func TestVoteTalliesBoundedBySenders(t *testing.T) {
	p := Params{N: 4, F: 1}
	nd := NewNode(Config{ID: 1, Params: p})
	path := types.Path{0}
	for v := 0; v < 10000; v++ {
		for _, kind := range []int{KindEcho, KindReady} {
			nd.OnDeliver(types.Message{From: 3, To: 1, Round: kind, Path: path, Value: types.Value(v)})
		}
	}
	ins := nd.instance(0)
	if e, r := ins.echoes.values(), ins.readies.values(); e > p.N || r > p.N {
		t.Fatalf("one sender grew the tallies to %d echo / %d ready values, want at most n=%d", e, r, p.N)
	}
	// A hand-built message from outside the system must not vote at all:
	// with node 0's ready these would make a certificate of 3.
	nd.OnDeliver(types.Message{From: 9, To: 1, Round: KindReady, Path: path, Value: 5})
	nd.OnDeliver(types.Message{From: -1, To: 1, Round: KindReady, Path: path, Value: 5})
	nd.OnDeliver(types.Message{From: 0, To: 1, Round: KindReady, Path: path, Value: 5})
	if _, ok := nd.Delivered()[0]; ok {
		t.Fatal("delivered on one in-system ready plus out-of-system ones (certificate is 3)")
	}
	// The flood cost the honest senders nothing: a second ready amplifies
	// (f+1 = 2), and node 1's own ready completes the certificate.
	nd.OnDeliver(types.Message{From: 2, To: 1, Round: KindReady, Path: path, Value: 5})
	if v, ok := nd.Delivered()[0]; !ok || v != 5 {
		t.Fatalf("delivered %v/%v after the flood, want 5/true", v, ok)
	}
	if ins.readies.values() > p.N {
		t.Fatalf("ready tally holds %d values, want at most n=%d", ins.readies.values(), p.N)
	}
}

// values is the number of distinct values the tally has counted.
func (t *votes) values() int {
	if t.first.count == 0 {
		return 0
	}
	return 1 + len(t.more)
}

func TestACastFaultFreeAllPolicies(t *testing.T) {
	p := Params{N: 4, F: 1}
	counters := obs.NewCounterSet(CounterNames...)
	for _, tc := range []struct {
		name string
		pol  round.Policy
	}{
		{"fifo", nil},
		{"reorder", round.NewReorder(5)},
		{"delay", round.NewDelay(5, 12)},
		{"adversarial", round.NewAdversarial(5)},
	} {
		counters.Reset()
		inputs := map[types.NodeID]types.Value{0: 42}
		res, err := round.RunAsync(fleet(p, 0, inputs, counters), round.AsyncConfig{Policy: tc.pol})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Terminated {
			t.Fatalf("%s: did not terminate", tc.name)
		}
		for id, v := range res.Decisions {
			if v != 42 {
				t.Errorf("%s: node %d delivered %v, want 42", tc.name, id, v)
			}
		}
		if got := counters.Get(CounterCert); got != uint64(p.N) {
			t.Errorf("%s: cert_total=%d, want %d", tc.name, got, p.N)
		}
		if counters.Get(CounterEcho) == 0 || counters.Get(CounterReady) == 0 {
			t.Errorf("%s: echo/ready counters empty: %d/%d", tc.name, counters.Get(CounterEcho), counters.Get(CounterReady))
		}
	}
}

func TestACastEmitsCertificateEvents(t *testing.T) {
	p := Params{N: 4, F: 1}
	tr := obs.NewTracer(256)
	nodes := make([]round.AsyncNode, p.N)
	for i := range nodes {
		nodes[i] = NewNode(Config{ID: types.NodeID(i), Params: p, Input: 6, Sink: tr})
	}
	if _, err := round.RunAsync(nodes, round.AsyncConfig{}); err != nil {
		t.Fatal(err)
	}
	var echo, ready, cert int
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.EvEcho:
			echo++
		case obs.EvReady:
			ready++
		case obs.EvCertify:
			cert++
		}
		if e.A != 0 || e.B != 6 {
			t.Errorf("event %v: A/B = %d/%d, want broadcaster 0 value 6", e.Kind, e.A, e.B)
		}
	}
	if cert != p.N {
		t.Errorf("certify events = %d, want %d", cert, p.N)
	}
	if echo == 0 {
		t.Error("no echo-quorum events")
	}
	_ = ready // ready events appear only when amplification fires first
}

// twoFaced is a Byzantine broadcaster: it sends init value 1 to the first
// half of the system and value 2 to the rest, then echoes nothing.
type twoFaced struct {
	id types.NodeID
	n  int
}

func (b *twoFaced) ID() types.NodeID { return b.id }
func (b *twoFaced) Start() []types.Message {
	out := make([]types.Message, 0, b.n)
	for i := 0; i < b.n; i++ {
		v := types.Value(1)
		if i >= b.n/2 {
			v = 2
		}
		out = append(out, types.Message{To: types.NodeID(i), Round: KindInit, Path: types.Path{b.id}, Value: v})
	}
	return out
}
func (b *twoFaced) OnDeliver(types.Message) []types.Message { return nil }
func (b *twoFaced) Decided() (types.Value, bool)            { return 0, true }

// TestTwoFacedBroadcasterNeverSplits: with a two-faced Byzantine
// broadcaster and f=1, honest nodes may fail to deliver (neither value
// reaches an echo quorum) but must never deliver conflicting values — the
// echo-quorum intersection argument, exercised across many schedules.
func TestTwoFacedBroadcasterNeverSplits(t *testing.T) {
	p := Params{N: 4, F: 1}
	for seed := int64(0); seed < 50; seed++ {
		nodes := []round.AsyncNode{
			&twoFaced{id: 0, n: p.N},
			NewNode(Config{ID: 1, Params: p}),
			NewNode(Config{ID: 2, Params: p}),
			NewNode(Config{ID: 3, Params: p}),
		}
		wait := types.NewNodeSet(1, 2, 3)
		res, err := round.RunAsync(nodes, round.AsyncConfig{
			Policy: round.NewAdversarial(seed), WaitFor: wait,
		})
		if err != nil {
			t.Fatal(err)
		}
		var delivered []types.Value
		for _, id := range wait.IDs() {
			if v, ok := nodes[int(id)].(*Node).Delivered()[0]; ok {
				delivered = append(delivered, v)
			}
		}
		for _, v := range delivered {
			if v != delivered[0] {
				t.Fatalf("seed %d: split delivery %v (terminated=%v)", seed, delivered, res.Terminated)
			}
		}
	}
}

// rogueBroadcaster is a Byzantine node that is NOT in the run's Broadcasters
// set yet originates an init for its own instance (From is engine-stamped, so
// Path{id} with From=id is the one forgery shape it can produce).
type rogueBroadcaster struct {
	id types.NodeID
	n  int
}

func (r *rogueBroadcaster) ID() types.NodeID { return r.id }
func (r *rogueBroadcaster) Start() []types.Message {
	out := make([]types.Message, 0, 2*r.n)
	for _, kind := range []int{KindInit, KindReady} {
		for i := 0; i < r.n; i++ {
			out = append(out, types.Message{To: types.NodeID(i), Round: kind, Path: types.Path{r.id}, Value: 99})
		}
	}
	return out
}
func (r *rogueBroadcaster) OnDeliver(types.Message) []types.Message { return nil }
func (r *rogueBroadcaster) Decided() (types.Value, bool)            { return 0, true }

// TestRogueBroadcasterCannotForceEarlyDecision: a Byzantine node outside
// cfg.Broadcasters self-originates an init (plus readies) for its own
// instance. Honest nodes must ignore the whole instance — if they tallied
// it, its 2f+1-ready certificate would decrement await and flip decided
// before the real broadcaster's instance delivers, folding a zero value
// (validity/agreement breach at n=4, f=1, within tolerance).
func TestRogueBroadcasterCannotForceEarlyDecision(t *testing.T) {
	p := Params{N: 4, F: 1}
	for seed := int64(0); seed < 50; seed++ {
		for _, tc := range []struct {
			name string
			pol  round.Policy
		}{
			{"fifo", nil},
			{"adversarial", round.NewAdversarial(seed)},
		} {
			inputs := map[types.NodeID]types.Value{0: 7}
			nodes := fleet(p, 0, inputs, nil)
			nodes[3] = &rogueBroadcaster{id: 3, n: p.N}
			honest := types.NewNodeSet(0, 1, 2)
			res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: tc.pol, WaitFor: honest})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Terminated {
				t.Fatalf("%s seed=%d: honest complement did not terminate", tc.name, seed)
			}
			for _, id := range honest.IDs() {
				nd := nodes[int(id)].(*Node)
				if v, ok := nd.Decided(); !ok || v != 7 {
					t.Fatalf("%s seed=%d: node %d decided %v/%v, want 7/true (rogue instance must not fold into the decision)", tc.name, seed, id, v, ok)
				}
				got := nd.Delivered()
				if v, ok := got[0]; !ok || v != 7 {
					t.Errorf("%s seed=%d: node %d delivered %v/%v from broadcaster 0, want 7/true", tc.name, seed, id, v, ok)
				}
				if _, ok := got[3]; ok {
					t.Errorf("%s seed=%d: node %d delivered the rogue's self-originated instance", tc.name, seed, id)
				}
			}
		}
	}
}

// TestACastTotality: once any honest node delivers, every honest node
// eventually delivers the same value under a fair schedule — here the
// broadcaster crashes right after its inits, so delivery rides entirely on
// the echo/ready waves.
func TestACastTotality(t *testing.T) {
	p := Params{N: 4, F: 1}
	inputs := map[types.NodeID]types.Value{0: 11}
	nodes := fleet(p, 0, inputs, nil)
	// Node 0 broadcasts then goes silent: wrap it so OnDeliver is a no-op.
	nodes[0] = &silentAfterStart{inner: nodes[0]}
	wait := types.NewNodeSet(1, 2, 3)
	res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: round.NewReorder(9), WaitFor: wait})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("crash-after-init run did not terminate for the honest complement")
	}
	for _, id := range wait.IDs() {
		if v := nodes[int(id)].(*Node).Delivered()[0]; v != 11 {
			t.Errorf("node %d delivered %v, want 11", id, v)
		}
	}
}

type silentAfterStart struct{ inner round.AsyncNode }

func (s *silentAfterStart) ID() types.NodeID                        { return s.inner.ID() }
func (s *silentAfterStart) Start() []types.Message                  { return s.inner.Start() }
func (s *silentAfterStart) OnDeliver(types.Message) []types.Message { return nil }
func (s *silentAfterStart) Decided() (types.Value, bool)            { return s.inner.Decided() }

func TestACastStarvationIsSafeNotLive(t *testing.T) {
	p := Params{N: 4, F: 1}
	inputs := map[types.NodeID]types.Value{0: 5}
	nodes := fleet(p, 0, inputs, nil)
	res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: &round.Starve{Target: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated {
		t.Error("starved run terminated")
	}
	if !res.Starved {
		t.Error("Starved=false on a withholding schedule")
	}
	if _, ok := nodes[2].(*Node).Delivered()[0]; ok {
		t.Error("starved node delivered without receiving any message")
	}
	for _, id := range []int{0, 1, 3} {
		if v, ok := nodes[id].(*Node).Delivered()[0]; !ok || v != 5 {
			t.Errorf("node %d delivered %v/%v, want 5/true (starvation of one node must not block the rest: quorums are n−f)", id, v, ok)
		}
	}
}

func TestMultiBroadcasterReceiptVector(t *testing.T) {
	p := Params{N: 4, F: 1}
	all := types.NewNodeSet(0, 1, 2, 3)
	inputs := map[types.NodeID]types.Value{0: 10, 1: 20, 2: 30, 3: 40}
	nodes := fleet(p, all, inputs, nil)
	res, err := round.RunAsync(nodes, round.AsyncConfig{Policy: round.NewReorder(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("multi-broadcast run did not terminate")
	}
	for i, nd := range nodes {
		got := nd.(*Node).Delivered()
		for b, want := range inputs {
			if got[b] != want {
				t.Errorf("node %d delivered %v from %d, want %v", i, got[b], b, want)
			}
		}
	}
	if v := res.Decisions[1]; v != 10 {
		t.Errorf("folded decision = %v, want lowest broadcaster's value 10", v)
	}
}
