package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/round"
	"degradable/internal/service"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// Every input of every workload is generated here, from the seed alone, as
// plain values the program then receives: equal seeds give byte-identical
// inputs (hashInputs is what the determinism tests compare), and the
// measured windows only ever loop over these sets in whole passes.

// Workload sizing. One pass over a set is one sample of every end-to-end
// metric, so sets are sized for roughly a second of work on this box: long
// enough that a pass's p99 has samples beyond it, short enough that a
// 12-second window yields a median over eight or more passes.
const (
	conns = 2 // generator connections and sender goroutines, never more

	fastPerConn  = 98304 // serve_fast requests per connection per pass
	fastDepth    = 16    // outstanding per connection
	deepPerConn  = 768   // serve_deep requests per connection per pass
	openPerPass  = 12000 // fleet_open arrivals per pass
	simScenarios = 2000  // sim_sync scenarios per pass
	asyncRuns    = 2000  // sim_async runs per pass (half A-Cast, half ABA)

	// openRate is the fleet_open arrival rate in requests per second. It is
	// a committed constant, calibrated once on the reference box to about
	// half the closed-loop capacity of the same in-process path (README.md
	// has the numbers), never computed at run time: parent and change must
	// see the same load.
	openRate = 12000.0

	// sloLimit is the fleet_open latency limit on the 99th percentile; a
	// request later than this, or failed, counts towards slo_miss_frac.
	sloLimitUs = 5000.0
)

type shape struct{ n, m, u int }

var (
	shapeFast  = shape{7, 1, 2}
	shapeDeep  = shape{11, 3, 4}
	shapeMid   = shape{10, 2, 3}
	shapeSmall = shape{5, 1, 2}
)

var allKinds = []adversary.Kind{
	adversary.KindSilent, adversary.KindCrash, adversary.KindLie,
	adversary.KindTwoFaced, adversary.KindRandom,
}

// value draws an application value; V_d (math.MinInt64) is never drawn.
func value(rng *rand.Rand) types.Value { return types.Value(1 + rng.Int63n(1<<30)) }

// genFast is the serve_fast stream: no faults, so every request takes the
// O(1) FastDecision path and codec, sockets and hand-off do all the work.
func genFast(seed int64, perConn int) [][]service.Request {
	out := make([][]service.Request, conns)
	for c := range out {
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		out[c] = make([]service.Request, perConn)
		for i := range out[c] {
			out[c][i] = service.Request{N: shapeFast.n, M: shapeFast.m, U: shapeFast.u, Value: value(rng)}
		}
	}
	return out
}

// genDeep is the serve_deep stream: every request arms one non-sender
// fault (lie / two-faced / random, cycled), which the service's fast-path
// predicate rejects, so every request runs the full depth-4 exchange.
func genDeep(seed int64, perConn int) [][]service.Request {
	kinds := []adversary.Kind{adversary.KindLie, adversary.KindTwoFaced, adversary.KindRandom}
	out := make([][]service.Request, conns)
	for c := range out {
		rng := rand.New(rand.NewSource(seed + int64(c)*7919 + 1))
		out[c] = make([]service.Request, perConn)
		for i := range out[c] {
			out[c][i] = service.Request{
				N: shapeDeep.n, M: shapeDeep.m, U: shapeDeep.u, Value: value(rng),
				Faults: []service.FaultSpec{{
					Node:  types.NodeID(1 + rng.Intn(shapeDeep.n-1)),
					Kind:  kinds[i%len(kinds)],
					Value: value(rng),
					Seed:  rng.Int63(),
				}},
			}
		}
	}
	return out
}

// openArrival is one fleet_open request with its due time.
type openArrival struct {
	dueNs int64 // offset from the start of the pass
	req   service.Request
}

// genOpen is the fleet_open schedule: seeded Poisson arrivals at openRate,
// shapes mixed 70/20/10 with a uniformly drawn sender, fault probability
// 0.25 on a uniformly drawn node (an armed sender exercises the probe path,
// any other node the fallback), arrival i sent on connection i mod conns
// for tenant 1 + i mod conns. The sender is part of the router's placement
// key, so the set has 22 keys, not 3: the ring hashes the backends'
// ephemeral addresses, and with 3 keys one run would place 70 % of the
// load on a backend and the next all of it. The
// second result is the pass length: the next pass starts that long after
// this one, so the arrival process is continuous across passes.
func genOpen(seed int64, count int) ([]openArrival, int64) {
	rng := rand.New(rand.NewSource(seed + 2))
	out := make([]openArrival, count)
	var due float64
	for i := range out {
		due += rng.ExpFloat64() / openRate * 1e9
		sh := shapeFast
		switch p := rng.Float64(); {
		case p >= 0.9:
			sh = shapeSmall
		case p >= 0.7:
			sh = shapeMid
		}
		req := service.Request{
			N: sh.n, M: sh.m, U: sh.u, Sender: types.NodeID(rng.Intn(sh.n)),
			Value: value(rng), Tenant: uint32(1 + i%conns),
		}
		if rng.Float64() < 0.25 {
			req.Faults = []service.FaultSpec{{
				Node:  types.NodeID(rng.Intn(sh.n)),
				Kind:  allKinds[rng.Intn(len(allKinds))],
				Value: value(rng),
				Seed:  rng.Int63(),
			}}
		}
		out[i] = openArrival{dueNs: int64(due), req: req}
	}
	return out, int64(due + 1e9/openRate)
}

// openRequests are the requests of an open-loop schedule, in arrival order
// (nil for an empty schedule).
func openRequests(arrivals []openArrival) []service.Request {
	var out []service.Request
	for _, a := range arrivals {
		out = append(out, a.req)
	}
	return out
}

// stratified keeps drawing candidates draw(0), draw(1), … and keeps one
// while its class still has room, until count are kept with every class
// holding its equal share. The seed decides every scenario's faults,
// injectors and coin flips; it does not decide how many scenarios of each
// size and kind a set holds, so sets from different seeds cost about the
// same (a handful of large runs dominates a simulator pass, and a free draw
// moved ops_per_s by a fifth from one seed to the next). draw returns the
// candidate's class in [0, classes), or a negative class to skip it.
func stratified[T any](count, classes int, draw func(i int) (T, int)) []T {
	quota := (count + classes - 1) / classes
	held := make([]int, classes)
	out := make([]T, 0, count)
	for i := 0; len(out) < count; i++ {
		item, class := draw(i)
		if class < 0 || held[class] == quota {
			continue
		}
		held[class]++
		out = append(out, item)
	}
	return out
}

// sparseFamilies are the sim_sync topology families.
var sparseFamilies = []string{"harary:4:8", "cliquering:4:2", "hypercube:3"}

// genSync is the sim_sync set: 60 % flat scenarios (the default grid plus
// N=10 m=2 u=3, up to three injectors, an equal share per grid point) and
// 40 % sparse-topology scenarios (mixed fault placement, an equal share per
// family and channel mode), drawn by two campaigns that share the seed and
// interleaved three to two.
func genSync(seed int64, count int) []chaos.Scenario {
	flat := chaos.Campaign{
		Seed:         seed,
		Grid:         append(chaos.DefaultGrid(), chaos.GridPoint{N: shapeMid.n, M: shapeMid.m, U: shapeMid.u}),
		Probs:        chaos.DefaultProbs(),
		MaxInjectors: 3,
	}
	sparse := flat
	sparse.Grid = chaos.DefaultGrid()
	sparse.Topology = &chaos.TopoAxis{
		Families:  sparseFamilies,
		Placement: chaos.PlacementMixed,
		Mode:      chaos.TopoModeMixed,
	}
	nSparse := count * 2 / 5
	flats := stratified(count-nSparse, len(flat.Grid), func(i int) (chaos.Scenario, int) {
		sc := flat.Generate(i)
		for class, gp := range flat.Grid {
			if gp.N == sc.N && gp.M == sc.M && gp.U == sc.U {
				return sc, class
			}
		}
		return sc, -1
	})
	sparses := stratified(nSparse, 2*len(sparseFamilies), func(i int) (chaos.Scenario, int) {
		sc := sparse.Generate(i)
		for class, family := range sparseFamilies {
			if sc.Topology.Graph == family { // else the graph could not host the grid point
				if sc.Topology.Mode == chaos.TopoModeRouted {
					class += len(sparseFamilies)
				}
				return sc, class
			}
		}
		return sc, -1
	})
	out := make([]chaos.Scenario, 0, count)
	for len(flats)+len(sparses) > 0 {
		if len(out)%5 < 3 && len(flats) > 0 || len(sparses) == 0 {
			out, flats = append(out, flats[0]), flats[1:]
		} else {
			out, sparses = append(out, sparses[0]), sparses[1:]
		}
	}
	return out
}

// asyncSizes are the sim_async system sizes; faults stay within n > 3f.
var asyncSizes = []int{4, 7, 16, 31}

// asyncScheds are the scheduler policies both halves of sim_async cycle.
var asyncScheds = []string{
	round.SchedFIFO, round.SchedReorder, round.SchedDelay,
	round.SchedAdversarial, round.SchedStarve,
}

// abaRun is one seeded asynchronous binary agreement run.
type abaRun struct {
	N      int     `json:"n"`
	Inputs []uint8 `json:"inputs"`
	Sched  string  `json:"sched"`
	Seed   int64   `json:"seed"`
	Coin   uint64  `json:"coin"`
}

// asyncRun is one sim_async operation: an A-Cast chaos scenario or an ABA
// run (exactly one is set).
type asyncRun struct {
	ACast *chaos.Scenario `json:"acast,omitempty"`
	ABA   *abaRun         `json:"aba,omitempty"`
}

// genAsync is the sim_async set: even indices are A-Cast scenarios from the
// chaos async axis, odd indices ABA runs with mixed inputs, both with an
// equal share per system size and scheduler policy.
func genAsync(seed int64, count int) []asyncRun {
	grid := make([]chaos.GridPoint, len(asyncSizes))
	for i, n := range asyncSizes {
		grid[i] = chaos.GridPoint{N: n, M: 1, U: 1}
	}
	camp := chaos.Campaign{Seed: seed, Grid: grid, Async: &chaos.AsyncAxis{Scheds: asyncScheds}}
	cells := len(asyncSizes) * len(asyncScheds)
	acasts := stratified((count+1)/2, cells, func(i int) (chaos.Scenario, int) {
		sc := camp.Generate(i)
		name, _, _ := strings.Cut(sc.Sched, ":")
		if name == "" {
			name = round.SchedFIFO
		}
		return sc, slices.Index(asyncSizes, sc.N)*len(asyncScheds) + slices.Index(asyncScheds, name)
	})
	rng := rand.New(rand.NewSource(seed + 3))
	out := make([]asyncRun, count)
	for i := range out {
		if i%2 == 0 {
			out[i].ACast = &acasts[i/2]
			continue
		}
		cell := (i / 2) % cells
		n := asyncSizes[cell/len(asyncScheds)]
		run := &abaRun{N: n, Inputs: make([]uint8, n), Seed: rng.Int63(), Coin: rng.Uint64()}
		for j := range run.Inputs {
			run.Inputs[j] = uint8(rng.Intn(2))
		}
		run.Sched = asyncScheds[cell%len(asyncScheds)]
		if run.Sched == round.SchedStarve {
			run.Sched = fmt.Sprintf("%s:%d", round.SchedStarve, rng.Intn(n))
		}
		out[i].ABA = run
	}
	return out
}

// inputs is everything one workload's program receives.
type inputs struct {
	reqs  [][]service.Request // serve_fast, serve_deep: one stream per connection
	open  []openArrival       // fleet_open
	span  int64               // fleet_open pass length in ns
	sync  []chaos.Scenario    // sim_sync
	async []asyncRun          // sim_async
}

// genInputs generates one workload's inputs; scale shrinks the sets (1 is
// the full size, the smoke test uses a fraction).
func genInputs(workload string, seed int64, scale float64) (inputs, error) {
	sz := func(full int) int {
		if n := int(float64(full) * scale); n >= 8 {
			return n
		}
		return 8
	}
	var in inputs
	switch workload {
	case "serve_fast":
		in.reqs = genFast(seed, sz(fastPerConn))
	case "serve_deep":
		in.reqs = genDeep(seed, sz(deepPerConn))
	case "fleet_open":
		in.open, in.span = genOpen(seed, sz(openPerPass))
	case "sim_sync":
		in.sync = genSync(seed, sz(simScenarios))
	case "sim_async":
		in.async = genAsync(seed, sz(asyncRuns))
	default:
		return in, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// hashInputs digests a generated input set byte for byte: requests in
// their wire encoding, the open-loop schedule's due times, scenarios and
// async runs as their replayable JSON.
func hashInputs(in inputs) (string, error) {
	h := sha256.New()
	var buf []byte
	put := func(req service.Request) error {
		var err error
		buf, err = wire.AppendTaggedRequest(buf[:0], 0, wire.Tag{Tenant: req.Tenant}, req)
		if err != nil {
			return err
		}
		h.Write(buf)
		return nil
	}
	for _, stream := range in.reqs {
		for _, req := range stream {
			if err := put(req); err != nil {
				return "", err
			}
		}
	}
	for _, a := range in.open {
		binary.Write(h, binary.BigEndian, a.dueNs)
		if err := put(a.req); err != nil {
			return "", err
		}
	}
	binary.Write(h, binary.BigEndian, in.span)
	enc := json.NewEncoder(h)
	for _, sc := range in.sync {
		if err := enc.Encode(sc); err != nil {
			return "", err
		}
	}
	for _, run := range in.async {
		if err := enc.Encode(run); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
