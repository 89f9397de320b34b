package acast

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"degradable/internal/obs"
	"degradable/internal/rng"
	"degradable/internal/round"
	"degradable/internal/types"
)

// The oracle is the slice-returning flow production code used before the
// node-owned outbox: every handler returns a fresh []types.Message, broadcast
// materialises n copies, and pump applies the self-addressed ones until
// quiescence. It is the reference for the emit order — enqueue order is the
// Seq every seeded policy's picks are a function of, so the outbox must
// reproduce pump's breadth-first order exactly — and for the per-(value,
// sender) map tallies the bounded first-vote-per-sender tallies replaced.

// broadcast fans m out to every node, self included; pump routes the self
// copy through the local handler.
func broadcast(n int, m types.Message) []types.Message {
	out := make([]types.Message, n)
	for i := range out {
		out[i] = m
		out[i].To = types.NodeID(i)
	}
	return out
}

// pump applies self-addressed sends locally until quiescence and returns
// the external sends.
func pump(self types.NodeID, handle func(types.Message) []types.Message, ms []types.Message) []types.Message {
	out := make([]types.Message, 0, len(ms))
	queue := ms
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if m.To != self {
			out = append(out, m)
			continue
		}
		m.From = self
		queue = append(queue, handle(m)...)
	}
	return out
}

// addDedup records sender in set[v], reporting whether it was new.
func addDedup(sets *map[types.Value]types.NodeSet, v types.Value, sender types.NodeID) bool {
	if *sets == nil {
		*sets = make(map[types.Value]types.NodeSet)
	}
	s := (*sets)[v]
	if s.Contains(sender) {
		return false
	}
	(*sets)[v] = s.Add(sender)
	return true
}

type oracleInstance struct {
	initSeen, echoed, readied, delivered bool
	value                                types.Value
	echoes, readies                      map[types.Value]types.NodeSet
}

// oracleNode is the reference A-Cast participant.
type oracleNode struct {
	cfg      Config
	inst     []oracleInstance
	await    int
	decided  bool
	decision types.Value
}

func newOracleNode(cfg Config) *oracleNode {
	if cfg.Broadcasters.Len() == 0 {
		cfg.Broadcasters = types.NewNodeSet(0)
	}
	return &oracleNode{cfg: cfg, inst: make([]oracleInstance, cfg.Params.N), await: cfg.Broadcasters.Len()}
}

func (n *oracleNode) ID() types.NodeID             { return n.cfg.ID }
func (n *oracleNode) Decided() (types.Value, bool) { return n.decision, n.decided }

func (n *oracleNode) Start() []types.Message {
	if !n.cfg.Broadcasters.Contains(n.cfg.ID) {
		return nil
	}
	return pump(n.cfg.ID, n.handle, broadcast(n.cfg.Params.N, types.Message{
		Round: KindInit,
		Path:  types.Path{n.cfg.ID},
		Value: n.cfg.Input,
	}))
}

func (n *oracleNode) OnDeliver(m types.Message) []types.Message {
	return pump(n.cfg.ID, n.handle, n.handle(m))
}

func (n *oracleNode) handle(m types.Message) []types.Message {
	if len(m.Path) != 1 {
		return nil
	}
	b := m.Path[0]
	if b < 0 || int(b) >= n.cfg.Params.N || !n.cfg.Broadcasters.Contains(b) {
		return nil
	}
	ins := &n.inst[int(b)]
	switch Kind(m.Round) {
	case KindInit:
		if m.From != b || ins.initSeen {
			return nil
		}
		ins.initSeen = true
		return n.sendEcho(ins, b, m.Value)
	case KindEcho:
		if addDedup(&ins.echoes, m.Value, m.From) &&
			ins.echoes[m.Value].Len() >= n.cfg.Params.EchoQuorum() && !ins.readied {
			n.observe(obs.EvEcho, b, m.Value)
			return n.sendReady(ins, b, m.Value)
		}
	case KindReady:
		if !addDedup(&ins.readies, m.Value, m.From) {
			return nil
		}
		count := ins.readies[m.Value].Len()
		var out []types.Message
		if count >= n.cfg.Params.ReadyAmplify() && !ins.readied {
			n.observe(obs.EvReady, b, m.Value)
			out = n.sendReady(ins, b, m.Value)
		}
		if count >= n.cfg.Params.ReadyQuorum() && !ins.delivered {
			ins.delivered = true
			ins.value = m.Value
			if n.cfg.Counters != nil {
				n.cfg.Counters.Inc(CounterCert)
			}
			n.observe(obs.EvCertify, b, m.Value)
			n.await--
			if n.await == 0 {
				n.decided = true
				for i := range n.inst {
					if n.cfg.Broadcasters.Contains(types.NodeID(i)) {
						n.decision = n.inst[i].value
						break
					}
				}
			}
		}
		return out
	}
	return nil
}

func (n *oracleNode) sendEcho(ins *oracleInstance, b types.NodeID, v types.Value) []types.Message {
	if ins.echoed {
		return nil
	}
	ins.echoed = true
	if n.cfg.Counters != nil {
		n.cfg.Counters.Inc(CounterEcho)
	}
	return broadcast(n.cfg.Params.N, types.Message{Round: KindEcho, Path: types.Path{b}, Value: v})
}

func (n *oracleNode) sendReady(ins *oracleInstance, b types.NodeID, v types.Value) []types.Message {
	ins.readied = true
	if n.cfg.Counters != nil {
		n.cfg.Counters.Inc(CounterReady)
	}
	return broadcast(n.cfg.Params.N, types.Message{Round: KindReady, Path: types.Path{b}, Value: v})
}

func (n *oracleNode) observe(kind obs.EventKind, b types.NodeID, v types.Value) {
	if n.cfg.Sink != nil {
		n.cfg.Sink.Emit(obs.Event{Kind: kind, Node: int16(n.cfg.ID), A: int64(b), B: int64(v)})
	}
}

type oracleRound struct {
	sentBval  [2]bool
	bval      [2]types.NodeSet
	binValues [2]bool
	sentAux   bool
	aux       [2]types.NodeSet
	done      bool
}

// oracleABA is the reference binary-agreement participant: map-backed round
// state, slice-returning handlers, the O(n) voter loop.
type oracleABA struct {
	id       types.NodeID
	p        Params
	coinSeed uint64
	est      uint8
	round    int
	rounds   map[int]*oracleRound
	decided  bool
	decision types.Value
}

func newOracleABA(id types.NodeID, p Params, input uint8, coinSeed uint64) *oracleABA {
	return &oracleABA{id: id, p: p, coinSeed: coinSeed, est: input & 1, round: 1, rounds: make(map[int]*oracleRound)}
}

func (a *oracleABA) ID() types.NodeID             { return a.id }
func (a *oracleABA) Decided() (types.Value, bool) { return a.decision, a.decided }

func (a *oracleABA) Start() []types.Message {
	return pump(a.id, a.handle, a.propose(a.round, a.est))
}

func (a *oracleABA) OnDeliver(m types.Message) []types.Message {
	return pump(a.id, a.handle, a.handle(m))
}

func (a *oracleABA) state(r int) *oracleRound {
	st := a.rounds[r]
	if st == nil {
		st = &oracleRound{}
		a.rounds[r] = st
	}
	return st
}

func (a *oracleABA) propose(r int, v uint8) []types.Message {
	st := a.state(r)
	if st.sentBval[v] {
		return nil
	}
	st.sentBval[v] = true
	return broadcast(a.p.N, types.Message{Round: r<<kindBits | KindBval, Value: types.Value(v)})
}

func (a *oracleABA) handle(m types.Message) []types.Message {
	if m.Value != 0 && m.Value != 1 {
		return nil
	}
	v := uint8(m.Value)
	r := ABARound(m.Round)
	if r < 1 || r > a.round+abaRoundWindow {
		return nil
	}
	st := a.state(r)
	var out []types.Message
	switch Kind(m.Round) {
	case KindBval:
		if st.bval[v].Contains(m.From) {
			return nil
		}
		st.bval[v] = st.bval[v].Add(m.From)
		n := st.bval[v].Len()
		if n >= a.p.ReadyAmplify() && !st.sentBval[v] {
			out = append(out, a.propose(r, v)...)
		}
		if n >= a.p.ReadyQuorum() && !st.binValues[v] {
			st.binValues[v] = true
			if !st.sentAux {
				st.sentAux = true
				out = append(out, broadcast(a.p.N, types.Message{Round: r<<kindBits | KindAux, Value: types.Value(v)})...)
			}
			out = append(out, a.tryAdvance(r)...)
		}
	case KindAux:
		if st.aux[v].Contains(m.From) {
			return nil
		}
		st.aux[v] = st.aux[v].Add(m.From)
		out = append(out, a.tryAdvance(r)...)
	}
	return out
}

func (a *oracleABA) tryAdvance(r int) []types.Message {
	if r != a.round {
		return nil
	}
	st := a.state(r)
	if st.done || (!st.binValues[0] && !st.binValues[1]) {
		return nil
	}
	var voters types.NodeSet
	var vals [2]bool
	for v := 0; v < 2; v++ {
		if !st.binValues[v] {
			continue
		}
		set := st.aux[v]
		if set.Len() == 0 {
			continue
		}
		vals[v] = true
		for id := 0; id < a.p.N; id++ {
			if set.Contains(types.NodeID(id)) {
				voters = voters.Add(types.NodeID(id))
			}
		}
	}
	if voters.Len() < a.p.N-a.p.F {
		return nil
	}
	st.done = true
	c := uint8(splitmix(a.coinSeed^(uint64(r)*0x9e3779b97f4a7c15)) & 1)
	switch {
	case vals[0] != vals[1]:
		var v uint8
		if vals[1] {
			v = 1
		}
		if v == c && !a.decided {
			a.decided = true
			a.decision = types.Value(v)
		}
		a.est = v
	default:
		a.est = c
	}
	a.round = r + 1
	out := a.propose(a.round, a.est)
	return append(out, a.recheck(a.round)...)
}

func (a *oracleABA) recheck(r int) []types.Message {
	st := a.state(r)
	var out []types.Message
	for v := uint8(0); v < 2; v++ {
		n := st.bval[v].Len()
		if n >= a.p.ReadyAmplify() && !st.sentBval[v] {
			out = append(out, a.propose(r, v)...)
		}
		if n >= a.p.ReadyQuorum() && !st.binValues[v] {
			st.binValues[v] = true
			if !st.sentAux {
				st.sentAux = true
				out = append(out, broadcast(a.p.N, types.Message{Round: r<<kindBits | KindAux, Value: types.Value(v)})...)
			}
		}
	}
	return append(out, a.tryAdvance(r)...)
}

// Fault kinds of the differential: the asynchronous adversary set
// internal/chaos arms (chaos imports this package, so its wrapper cannot be
// imported here; byzantine mirrors it over any AsyncNode).
const (
	faultNone = iota
	faultLie
	faultTwoFaced
	faultRandom
	faultSilent
	faultCrash
	faultKinds
)

var faultNames = [faultKinds]string{"none", "lie", "twofaced", "random", "silent", "crash"}

// byzantine perverts what leaves an honest participant. Like the chaos
// wrapper it rewrites values in place in the slice the inner node returned,
// which is what the borrowed-slice rule has to allow, borrows its source from
// internal/rng's pool and forwards Release.
type byzantine struct {
	inner  round.AsyncNode
	kind   int
	n      int
	forged types.Value
	rng    *rand.Rand
	seen   int
}

func newByzantine(inner round.AsyncNode, kind, n int, forged types.Value, seed int64) *byzantine {
	return &byzantine{inner: inner, kind: kind, n: n, forged: forged, rng: rng.Get(seed)}
}

func (b *byzantine) Release() {
	if r, ok := b.inner.(round.Releaser); ok {
		r.Release()
	}
	if b.rng != nil {
		rng.Put(b.rng)
		b.rng = nil
	}
}

func (b *byzantine) ID() types.NodeID             { return b.inner.ID() }
func (b *byzantine) Decided() (types.Value, bool) { return 0, true }

func (b *byzantine) Start() []types.Message {
	if b.kind == faultSilent {
		return nil
	}
	return b.mutate(b.inner.Start())
}

func (b *byzantine) OnDeliver(m types.Message) []types.Message {
	b.seen++
	if b.kind == faultSilent || (b.kind == faultCrash && b.seen > b.n) {
		return nil
	}
	return b.mutate(b.inner.OnDeliver(m))
}

func (b *byzantine) mutate(out []types.Message) []types.Message {
	for i := range out {
		switch b.kind {
		case faultLie:
			out[i].Value = b.forged
		case faultTwoFaced:
			if int(out[i].To) >= b.n/2 {
				out[i].Value = b.forged
			}
		case faultRandom:
			if b.rng.Intn(2) == 0 {
				out[i].Value = b.forged + types.Value(b.rng.Intn(3))
			}
		}
	}
	return out
}

// diffCase is one cell of the outbox-versus-oracle differential. With
// release set, the production run also holds the Release contract: before
// every third delivery it releases the recipient and poisons the send pool,
// and the resumed node must still match the oracle, which never releases.
type diffCase struct {
	aba     bool
	n       int
	sched   string
	fault   int
	seed    int64
	release bool
}

func (c diffCase) String() string {
	proto := "acast"
	if c.aba {
		proto = "aba"
	}
	s := fmt.Sprintf("%s/n=%d/%s/%s/seed=%d", proto, c.n, c.sched, faultNames[c.fault], c.seed)
	if c.release {
		s += "/release"
	}
	return s
}

// poisonPool fills pooled send buffers with another node's sends and puts
// them back emptied but uncleared, the way a concurrent run's outbox would
// leave them if release did not clear: a node that borrows one must not read
// what is in it.
func poisonPool(n int) {
	for k := 0; k < 3; k++ {
		o := newOutbox(types.NodeID(n-1-k%n), n)
		for v := 0; v < 3; v++ {
			o.broadcast(types.Message{Round: KindReady, Path: types.Path{types.NodeID(k)}, Value: types.Value(-1 - v)})
		}
		o.next()
		o.begin()
		sendPool.Put(o.buf)
	}
}

// transcript is everything a run exposes: the delivery transcript, the
// result, and the acast_* counters.
type transcript struct {
	trace    []string
	res      *round.AsyncResult
	counters [3]uint64
}

// run executes the case on production nodes or on the oracle's. Both sides
// draw inputs, fault placement and coin from the case seed alone, so they
// differ only in the node implementation.
func (c diffCase) run(t testing.TB, oracle bool) transcript {
	t.Helper()
	p := Params{N: c.n, F: (c.n - 1) / 3}
	rng := rand.New(rand.NewSource(c.seed))
	counters := obs.NewCounterSet(CounterNames...)
	bcasters := types.NewNodeSet(types.NodeID(rng.Intn(c.n)))
	if rng.Intn(2) == 0 {
		bcasters = bcasters.Add(types.NodeID(rng.Intn(c.n)))
	}
	coin := rng.Uint64()
	nodes := make([]round.AsyncNode, c.n)
	for i := range nodes {
		id := types.NodeID(i)
		input := types.Value(1000 + rng.Intn(3))
		switch {
		case c.aba && oracle:
			nodes[i] = newOracleABA(id, p, uint8(input&1), coin)
		case c.aba:
			nodes[i] = NewABA(id, p, uint8(input&1), coin)
		case oracle:
			nodes[i] = newOracleNode(Config{ID: id, Params: p, Broadcasters: bcasters, Input: input, Counters: counters})
		default:
			nodes[i] = NewNode(Config{ID: id, Params: p, Broadcasters: bcasters, Input: input, Counters: counters})
		}
	}
	var honest types.NodeSet
	for i := range nodes {
		honest = honest.Add(types.NodeID(i))
	}
	if c.fault != faultNone {
		// Up to the tolerance, the first always armed: a faulty broadcaster
		// and a faulty bystander are both drawn over the seeds.
		for _, i := range rng.Perm(c.n)[:1+rng.Intn(max(p.F, 1))] {
			forged := types.Value(2002)
			if c.aba {
				forged = types.Value(rng.Intn(3)) // a bit, or garbage ABA must drop
			}
			nodes[i] = newByzantine(nodes[i], c.fault, c.n, forged, rng.Int63())
			honest = honest.Remove(types.NodeID(i))
		}
	}
	policy, err := round.ParsePolicy(c.sched, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	var tr transcript
	deliveries := 0
	tr.res, err = round.RunAsync(nodes, round.AsyncConfig{
		Policy:  policy,
		WaitFor: honest,
		Trace: func(m types.Message) {
			tr.trace = append(tr.trace, m.String())
			// The run copied the recipient's last sends out, so releasing
			// it here is what RunAsync does at the end of a run. A Byzantine
			// wrapper's source serves one run, so the node it wraps is the
			// one released.
			if deliveries++; c.release && !oracle && deliveries%3 == 0 {
				nd := nodes[m.To]
				if b, ok := nd.(*byzantine); ok {
					nd = b.inner
				}
				if r, ok := nd.(round.Releaser); ok {
					r.Release()
				}
				poisonPool(c.n)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.counters {
		tr.counters[i] = counters.Get(i)
	}
	return tr
}

// check runs the case on both implementations and compares everything.
func (c diffCase) check(t testing.TB) {
	t.Helper()
	got, want := c.run(t, false), c.run(t, true)
	if len(got.trace) != len(want.trace) {
		t.Fatalf("%v: %d deliveries, oracle %d", c, len(got.trace), len(want.trace))
	}
	for i := range got.trace {
		if got.trace[i] != want.trace[i] {
			t.Fatalf("%v: delivery %d is %s, oracle %s", c, i, got.trace[i], want.trace[i])
		}
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%v: result\n %+v\noracle\n %+v", c, got.res, want.res)
	}
	if got.counters != want.counters {
		t.Fatalf("%v: counters %v, oracle %v", c, got.counters, want.counters)
	}
}

// diffScheds is the policy axis of the differential; starve's target is
// drawn per case.
func diffScheds(n int, seed int64) []string {
	return []string{"fifo", "reorder", "delay:8", "delay:512", "adversarial", fmt.Sprintf("starve:%d", int(uint64(seed)%uint64(n)))}
}

// TestOutboxMatchesOracle holds the outbox flow to the slice-returning
// oracle over system size × policy × fault kind for both protocols: the
// full delivery transcript and the AsyncResult must be identical, which pins
// the emit order every seeded schedule is a function of. Half the cells,
// alternating fault kinds by seed, also release nodes mid-run (diffCase).
func TestOutboxMatchesOracle(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, aba := range []bool{false, true} {
		for _, n := range []int{4, 7, 16, 31} {
			for seed := int64(1); seed <= seeds; seed++ {
				for _, sched := range diffScheds(n, seed) {
					for fault := faultNone; fault < faultKinds; fault++ {
						release := (int64(fault)+seed)%2 == 1
						diffCase{aba: aba, n: n, sched: sched, fault: fault, seed: seed*7919 + int64(n), release: release}.check(t)
					}
				}
			}
		}
	}
}

// goroutineTB lets a differential cell run off the test goroutine: a fatal
// failure is reported and ends only the calling goroutine.
type goroutineTB struct{ testing.TB }

func (g goroutineTB) Fatal(args ...any) { g.Error(args...); runtime.Goexit() }
func (g goroutineTB) Fatalf(format string, args ...any) {
	g.Errorf(format, args...)
	runtime.Goexit()
}

// TestOutboxConcurrentRuns: runs on several goroutines at once share the
// send pool and rng's pool, releasing nodes mid-run and poisoning the send
// pool as they go; every cell, each goroutine walking them from a different
// start, must still match the oracle.
func TestOutboxConcurrentRuns(t *testing.T) {
	const workers = 4
	var cells []diffCase
	for _, aba := range []bool{false, true} {
		for _, n := range []int{4, 7, 16} {
			for _, sched := range diffScheds(n, int64(n)) {
				cells = append(cells, diffCase{aba: aba, n: n, sched: sched, fault: faultRandom, seed: int64(n), release: true})
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cells {
				cells[(i+w)%len(cells)].check(goroutineTB{t})
			}
		}(w)
	}
	wg.Wait()
}

// TestOutboxEmitOrderMatchesPump pins the outbox's order on its own, with a
// handler the protocols never give it: every message fans out into two
// broadcasts, three levels deep, so several self copies are pending at once
// and each produces sends when applied. pump's order is breadth-first; a
// depth-first or last-in-first-out outbox passes the protocol differential
// on most schedules and fails here.
func TestOutboxEmitOrderMatchesPump(t *testing.T) {
	const n, self = 5, types.NodeID(2)
	// A child's Round records who the parent came from: the self copies must
	// reach the handler stamped From self, the external message as delivered.
	children := func(m types.Message) (l, r types.Message, ok bool) {
		if m.Value >= 7 {
			return l, r, false
		}
		l = types.Message{Round: int(m.From), Value: 2*m.Value + 1}
		r = types.Message{Round: int(m.From), Value: 2*m.Value + 2}
		return l, r, true
	}
	root := types.Message{From: 4, To: self}

	var handle func(types.Message) []types.Message
	handle = func(m types.Message) []types.Message {
		l, r, ok := children(m)
		if !ok {
			return nil
		}
		return append(broadcast(n, l), broadcast(n, r)...)
	}
	want := pump(self, handle, handle(root))

	o := newOutbox(self, n)
	emit := func(m types.Message) {
		if l, r, ok := children(m); ok {
			o.broadcast(l)
			o.broadcast(r)
		}
	}
	for call := 0; call < 2; call++ { // the second call reuses the buffers
		o.begin()
		emit(root)
		for m, ok := o.next(); ok; m, ok = o.next() {
			emit(m)
		}
		if !reflect.DeepEqual(o.sends(), want) {
			t.Fatalf("call %d: outbox emitted\n %v\npump\n %v", call, o.sends(), want)
		}
	}
	if len(want) != 14*(n-1) {
		t.Fatalf("pump produced %d sends, want %d: the tree did not unfold", len(want), 14*(n-1))
	}
}

// TestOutboxReleaseClears: release hands back a buffer with nothing left in
// it — not the last call's sends, nor a longer earlier call's — so the pool
// keeps no node's paths alive; and the released outbox borrows again.
func TestOutboxReleaseClears(t *testing.T) {
	const n = 5
	o := newOutbox(1, n)
	path := types.Path{3}
	for _, sends := range []int{3, 1} { // the longer call first
		o.begin()
		for i := 0; i < sends; i++ {
			o.broadcast(types.Message{Round: KindEcho, Path: path, Value: types.Value(i)})
		}
		for _, ok := o.next(); ok; _, ok = o.next() {
		}
	}
	b := o.buf
	o.release()
	for _, buf := range [][]types.Message{b.ext, b.loop} {
		if len(buf) != 0 {
			t.Fatalf("released buffer holds %d sends, want an empty one", len(buf))
		}
		for i, m := range buf[:cap(buf)] {
			if !reflect.DeepEqual(m, types.Message{}) {
				t.Fatalf("released buffer keeps %v at %d", m, i)
			}
		}
	}
	if o.buf != nil || o.sends() != nil {
		t.Fatal("a released outbox still holds its buffer")
	}
	o.begin()
	o.broadcast(types.Message{Round: KindReady, Path: path})
	if got := len(o.sends()); got != n-1 {
		t.Fatalf("after release a broadcast emits %d sends, want %d", got, n-1)
	}
}
