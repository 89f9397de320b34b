package round

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"degradable/internal/types"
)

// The reference scheduler: the slice-scanning contract the policies were
// written against before they owned their queues. An oraclePolicy is handed
// the whole queue, in enqueue order, and returns the index to deliver;
// oracleScheduler removes that index in place, preserving order. Every
// recorded schedule is a function of these bodies, so the disciplines in
// sched.go are held to them step for step. Nothing here shares code with
// sched.go beyond splitmix.

// oraclePending is one queued send: the message itself and its enqueue
// number.
type oraclePending struct {
	M   types.Message
	Seq uint64
}

type oraclePolicy interface {
	Next(tick uint64, queue []oraclePending) int
}

type oracleFIFO struct{}

func (oracleFIFO) Next(_ uint64, queue []oraclePending) int {
	if len(queue) == 0 {
		return -1
	}
	return 0
}

type oracleReorder struct{ rng *rand.Rand }

func (p *oracleReorder) Next(_ uint64, queue []oraclePending) int {
	if len(queue) == 0 {
		return -1
	}
	return p.rng.Intn(len(queue))
}

type oracleDelay struct {
	seed int64
	max  uint64
}

func (p *oracleDelay) hold(seq uint64) uint64 {
	return splitmix(uint64(p.seed)^(seq*0x9e3779b97f4a7c15)) % (p.max + 1)
}

func (p *oracleDelay) Next(tick uint64, queue []oraclePending) int {
	if len(queue) == 0 {
		return -1
	}
	best, bestRel := -1, uint64(0)
	for i, pm := range queue {
		rel := pm.Seq + p.hold(pm.Seq)
		if rel <= tick {
			return i
		}
		if best == -1 || rel < bestRel {
			best, bestRel = i, rel
		}
	}
	return best
}

type oracleAdversarial struct{ rng *rand.Rand }

func (p *oracleAdversarial) Next(_ uint64, queue []oraclePending) int {
	if len(queue) == 0 {
		return -1
	}
	if p.rng.Intn(2) == 0 {
		return len(queue) - 1
	}
	return p.rng.Intn(len(queue))
}

type oracleStarve struct{ target types.NodeID }

func (p oracleStarve) Next(_ uint64, queue []oraclePending) int {
	for i, pm := range queue {
		if pm.M.To != p.target {
			return i
		}
	}
	return -1
}

// oracleParse mirrors ParsePolicy for the specs the differential uses.
func oracleParse(spec string, seed int64) oraclePolicy {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "", SchedFIFO:
		return oracleFIFO{}
	case SchedReorder:
		return &oracleReorder{rng: rand.New(rand.NewSource(seed))}
	case SchedDelay:
		max := uint64(16)
		if hasArg {
			max, _ = strconv.ParseUint(arg, 10, 32)
		}
		return &oracleDelay{seed: seed, max: max}
	case SchedAdversarial:
		return &oracleAdversarial{rng: rand.New(rand.NewSource(seed))}
	case SchedStarve:
		id, _ := strconv.Atoi(arg)
		return oracleStarve{target: types.NodeID(id)}
	}
	panic("oracleParse: " + spec)
}

type oracleScheduler struct {
	policy oraclePolicy
	queue  []oraclePending
	seq    uint64
	tick   uint64
}

func (s *oracleScheduler) Enqueue(m types.Message) {
	s.queue = append(s.queue, oraclePending{M: m, Seq: s.seq})
	s.seq++
}

func (s *oracleScheduler) Len() int { return len(s.queue) }

func (s *oracleScheduler) Reset() {
	s.queue = s.queue[:0]
	s.seq = 0
	s.tick = 0
}

func (s *oracleScheduler) Next() (types.Message, bool) {
	idx := s.policy.Next(s.tick, s.queue)
	if idx < 0 || idx >= len(s.queue) {
		return types.Message{}, false
	}
	m := s.queue[idx].M
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	s.tick++
	return m, true
}

func (s *oracleScheduler) Starved() bool { return len(s.queue) > 0 }

// schedPair drives the scheduler under test and the oracle with the same
// operations and fails on the first observable difference.
type schedPair struct {
	t      *testing.T
	label  string
	p      Policy
	s      *Scheduler
	o      *oracleScheduler
	step   int
	nextID int // stamps each send so every message is distinguishable

	maxLen, drains, resets int
}

func newSchedPair(t *testing.T, spec string, seed int64) *schedPair {
	t.Helper()
	p, err := ParsePolicy(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &schedPair{
		t: t, label: fmt.Sprintf("sched=%q seed=%d", spec, seed),
		p: p, s: NewScheduler(p), o: &oracleScheduler{policy: oracleParse(spec, seed)},
	}
}

func (sp *schedPair) enqueue(burst int) {
	for i := 0; i < burst; i++ {
		m := types.Message{From: 0, To: types.NodeID(1 + sp.nextID%4), Round: sp.nextID, Value: types.Value(sp.nextID)}
		sp.nextID++
		sp.s.Enqueue(m)
		sp.o.Enqueue(m)
	}
	sp.check("enqueue")
}

// next reports whether a pick was made.
func (sp *schedPair) next() bool {
	got, ok := sp.s.Next()
	want, wantOK := sp.o.Next()
	if ok != wantOK {
		sp.t.Fatalf("%s step %d: Next = %v, oracle %v", sp.label, sp.step, ok, wantOK)
	}
	// enqueue stamps Round with a serial number and leaves Path nil.
	if got.From != want.From || got.To != want.To || got.Round != want.Round || got.Value != want.Value {
		sp.t.Fatalf("%s step %d: delivered %v, oracle %v", sp.label, sp.step, got, want)
	}
	sp.check("next")
	if ok && sp.o.Len() == 0 {
		sp.drains++
	}
	return ok
}

// reset hands the live policy to a fresh Scheduler, which must empty its
// queue and restart the tickets while the policy keeps its rng stream.
// Every other reset first releases the old scheduler, as a finished run
// does, so the next one is built from storage that went through the pools.
func (sp *schedPair) reset() {
	if sp.resets%2 == 0 {
		sp.s.release()
	}
	sp.s = NewScheduler(sp.p)
	sp.o.Reset()
	sp.resets++
	sp.check("reset")
}

func (sp *schedPair) check(op string) {
	sp.step++
	if got, want := sp.s.Len(), sp.o.Len(); got != want {
		sp.t.Fatalf("%s step %d (%s): Len = %d, oracle %d", sp.label, sp.step, op, got, want)
	}
	if got, want := sp.s.Starved(), sp.o.Starved(); got != want {
		sp.t.Fatalf("%s step %d (%s): Starved = %v, oracle %v", sp.label, sp.step, op, got, want)
	}
	if l := sp.o.Len(); l > sp.maxLen {
		sp.maxLen = l
	}
}

var oracleSpecs = []string{"fifo", "reorder", "delay", "delay:3", "delay:200", "adversarial", "starve:2"}

// TestSchedulerMatchesOracle holds every policy's queue discipline to the
// slice-scanning reference over random interleavings of Enqueue bursts, Next
// and a reset (NewScheduler over the live policy, against the oracle's
// Reset): same message, same ok, same Len and Starved after every step.
// The walk alternates growing the queue past several blockQueue blocks and
// draining it until Next refuses, so block boundaries, the empty rewind and
// the refill after it are all crossed.
func TestSchedulerMatchesOracle(t *testing.T) {
	seeds, steps := 300, 3000
	if testing.Short() {
		seeds = 40
	}
	for _, spec := range oracleSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			maxLen, drains, resets := 0, 0, 0
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)*7919 + 1))
				sp := newSchedPair(t, spec, int64(seed))
				grow, target := true, 1+rng.Intn(5*blockLen)
				for i := 0; i < steps; i++ {
					switch r := rng.Float64(); {
					case r < 0.002:
						sp.reset()
					case grow && r < 0.1:
						sp.enqueue(rng.Intn(41))
						if sp.o.Len() >= target {
							grow = false
						}
					case !grow && r < 0.02:
						sp.enqueue(rng.Intn(11))
					default:
						if !sp.next() && !grow {
							grow, target = true, 1+rng.Intn(5*blockLen)
						}
					}
				}
				if sp.maxLen > maxLen {
					maxLen = sp.maxLen
				}
				drains += sp.drains
				resets += sp.resets
			}
			// The walk must have gone where the test claims it goes.
			if maxLen <= 3*blockLen || resets == 0 {
				t.Errorf("coverage: longest queue %d (want > %d), %d resets", maxLen, 3*blockLen, resets)
			}
			if drains == 0 && !strings.HasPrefix(spec, SchedStarve) {
				t.Errorf("coverage: the queue never drained to empty")
			}
		})
	}
}

// FuzzSchedulerVsOracle is the same differential with the fuzzer choosing
// the policy, the seed and the operation stream: each op byte is an Enqueue
// burst of 0–40 (high bit set), a reset (0x7f) or a Next.
func FuzzSchedulerVsOracle(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0xa8, 0xa8, 0, 0, 0, 0x7f, 0x90, 0, 0})
	f.Add(uint8(1), int64(42), []byte("\xa8\xa8\xa8\xa8\xa8\xa8\xa8\xa8\xa8\xa8\xa8\xa8\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(uint8(4), int64(-7), []byte("\xff\x01\x02\xff\x03\x7f\xff\x04\x05\x06"))
	f.Add(uint8(6), int64(9), []byte("\x85\x00\x00\x00\x00\x00\x00\x85\x00"))
	f.Fuzz(func(t *testing.T, specRaw uint8, seed int64, ops []byte) {
		sp := newSchedPair(t, oracleSpecs[int(specRaw)%len(oracleSpecs)], seed)
		for _, op := range ops {
			switch {
			case op >= 0x80:
				sp.enqueue(int(op&0x7f) % 41)
			case op == 0x7f:
				sp.reset()
			default:
				sp.next()
			}
		}
		for sp.next() { // and the tail drains identically
		}
	})
}
