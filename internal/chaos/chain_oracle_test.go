package chaos

import (
	"math/rand"
	"reflect"
	"testing"

	"degradable/internal/round"
	"degradable/internal/types"
)

// eagerChain is the injector stack as it was before the chain reused its
// buffers, kept as the reference the chain is differentially tested
// against: every layer's source is seeded when the stack is built, every
// layer returns a fresh slice per message, and CorruptValue builds its
// V_d-first domain per draw. It shares no code with the chain beyond the
// Injector declarations and the seed mix.
type eagerChain struct {
	layers   []*eagerLayer
	counters *Counters
}

type eagerLayer struct {
	spec     Injector
	rng      *rand.Rand
	group    map[types.NodeID]int
	counters *Counters
	faulty   types.NodeSet
}

func newEagerChain(injectors []Injector, faulty types.NodeSet, seed int64, counters *Counters) *eagerChain {
	c := &eagerChain{counters: counters}
	for i, in := range injectors {
		l := &eagerLayer{
			spec:     in,
			rng:      rand.New(rand.NewSource(mix(seed, int64(i)+1))),
			counters: counters,
			faulty:   faulty,
		}
		if in.Kind == Partition {
			l.group = make(map[types.NodeID]int)
			for g, members := range in.Groups {
				for _, id := range members {
					l.group[id] = g
				}
			}
		}
		c.layers = append(c.layers, l)
	}
	return c
}

func (l *eagerLayer) apply(m types.Message) []types.Message {
	scope := l.spec.Scope
	if l.spec.Kind == CorruptValue {
		scope = ScopeFaultyOnly
	}
	if scope != ScopeAnywhere && !l.faulty.Contains(m.From) {
		return []types.Message{m}
	}
	switch l.spec.Kind {
	case Drop:
		if l.rng.Float64() < l.spec.P {
			l.counters.Dropped++
			return nil
		}
	case DelayToAbsence:
		if l.rng.Float64() < l.spec.P {
			l.counters.Delayed++
			return nil
		}
	case Duplicate:
		if l.rng.Float64() < l.spec.P {
			l.counters.Duplicated++
			return []types.Message{m, m}
		}
	case CorruptValue:
		if l.rng.Float64() < l.spec.P {
			l.counters.Corrupted++
			domain := append([]types.Value{types.Default}, l.spec.Domain...)
			m.Value = domain[l.rng.Intn(len(domain))]
			return []types.Message{m}
		}
	case Partition:
		if (l.spec.FromRound <= 0 || m.Round >= l.spec.FromRound) && (l.spec.ToRound <= 0 || m.Round <= l.spec.ToRound) {
			gf, okF := l.group[m.From]
			gt, okT := l.group[m.To]
			if okF && okT && gf != gt {
				l.counters.Severed++
				return nil
			}
		}
	}
	return []types.Message{m}
}

func (c *eagerChain) DeliverAll(m types.Message) []types.Message {
	c.counters.Inspected++
	out := []types.Message{m}
	for _, l := range c.layers {
		var next []types.Message
		for _, cm := range out {
			next = append(next, l.apply(cm)...)
		}
		if len(next) == 0 {
			return nil
		}
		out = next
	}
	return out
}

// byteStream turns fuzz input into bounded choices; an exhausted stream
// answers 0.
type byteStream []byte

func (b *byteStream) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzStack decodes an injector stack over n nodes: up to six layers of any
// of the five kinds, either scope, probabilities on a quarter grid
// (certain hits and misses included), partition groups and round windows.
func fuzzStack(b *byteStream, n int) []Injector {
	var stack []Injector
	for k := b.next(7); k > 0; k-- {
		in := Injector{
			Kind:  InjectorKind(b.next(5) + 1),
			P:     float64(b.next(5)) / 4,
			Scope: Scope(b.next(2)),
		}
		switch in.Kind {
		case CorruptValue:
			for d := b.next(4); d > 0; d-- {
				in.Domain = append(in.Domain, types.Value(100+b.next(8)))
			}
		case Partition:
			in.Groups = make([][]types.NodeID, 2+b.next(2))
			for id := 0; id < n; id++ {
				if g := b.next(len(in.Groups) + 1); g > 0 {
					in.Groups[g-1] = append(in.Groups[g-1], types.NodeID(id))
				}
			}
			in.FromRound, in.ToRound = b.next(4), b.next(4)
		}
		stack = append(stack, in)
	}
	return stack
}

// FuzzChainVsEager holds the buffer-reusing chain to the eager oracle: for a
// decoded stack and fault set and a seeded message stream, every DeliverAll
// must return the oracle's copies in the oracle's order, and the counters
// must agree.
func FuzzChainVsEager(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		f.Add(rng.Int63(), data)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		b := byteStream(data)
		n := 4 + b.next(6)
		var faulty types.NodeSet
		for id := 0; id < n; id++ {
			if b.next(3) == 0 {
				faulty = faulty.Add(types.NodeID(id))
			}
		}
		stack := fuzzStack(&b, n)
		var gotC, wantC Counters
		got, err := buildChannel(stack, faulty, seed, &gotC)
		if err != nil {
			return // a malformed partition; buildChannel refuses it
		}
		want := newEagerChain(stack, faulty, seed, &wantC)
		paths := []types.Path{{0}, {0, 1}, {0, 2, 3}}
		stream := rand.New(rand.NewSource(seed))
		for k := 0; k < 200; k++ {
			m := types.Message{
				From:  types.NodeID(stream.Intn(n)),
				To:    types.NodeID(stream.Intn(n)),
				Round: 1 + stream.Intn(4),
				Value: types.Value(stream.Intn(4)),
				Path:  paths[stream.Intn(len(paths))],
			}
			g := append([]types.Message(nil), got.DeliverAll(m)...)
			w := want.DeliverAll(m)
			if len(g) != len(w) || (len(g) > 0 && !reflect.DeepEqual(g, w)) {
				t.Fatalf("message %d %+v over %+v: chain %v, eager %v", k, m, stack, g, w)
			}
		}
		if gotC != wantC {
			t.Fatalf("counters over %+v: chain %+v, eager %+v", stack, gotC, wantC)
		}
	})
}

// TestChainDeliverAllZeroAlloc pins the warm injector path at 0 allocations
// per message, for a four-kind chain alone and composed in front of a
// network channel.
func TestChainDeliverAllZeroAlloc(t *testing.T) {
	stack := Compose(
		Injector{Kind: Drop, P: 0.2},
		Injector{Kind: Duplicate, P: 0.5},
		Injector{Kind: CorruptValue, P: 0.5, Domain: []types.Value{7, 8}},
		Injector{Kind: Partition, Groups: [][]types.NodeID{{0, 1}, {2, 3}}, FromRound: 2},
	)
	msgs := make([]types.Message, 0, 64)
	for i := 0; i < cap(msgs); i++ {
		msgs = append(msgs, types.Message{
			From: types.NodeID(i % 5), To: types.NodeID((i + 1) % 5),
			Round: 1 + i%3, Value: 1, Path: types.Path{0, types.NodeID(i % 5)},
		})
	}
	for _, compose := range []bool{false, true} {
		ch, err := buildChannel(stack, types.NewNodeSet(1, 3), 5, new(Counters))
		if err != nil {
			t.Fatal(err)
		}
		var exp round.Expander = ch
		if compose {
			exp = ComposeEgress(ch, round.PerfectChannel{})
		}
		deliverAll := func() {
			for _, m := range msgs {
				exp.DeliverAll(m)
			}
		}
		deliverAll() // seed every layer and grow the buffers
		if allocs := testing.AllocsPerRun(100, deliverAll); allocs != 0 {
			t.Errorf("composed=%v: %v allocs per %d warm DeliverAll calls, want 0", compose, allocs, len(msgs))
		}
	}
}
