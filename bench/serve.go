package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"degradable/internal/fleet"
	"degradable/internal/service"
	"degradable/internal/spec"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// The serving workloads run the program in process over real loopback
// sockets: the benchmark starts wire.Server + service.New (and fleet.Router
// for fleet_open) itself on 127.0.0.1:0, with service.Config{} defaults, and
// drives them through wire.Client like any remote caller would.

// stopTimeout bounds every shutdown step of a harness.
const stopTimeout = 10 * time.Second

// backend is one in-process serve daemon: a wire.Server over its own
// service on an ephemeral port.
type backend struct {
	svc    *service.Service
	srv    *wire.Server
	served chan error
}

func startBackend(ln net.Listener) *backend {
	b := &backend{svc: service.New(service.Config{}), served: make(chan error, 1)}
	b.srv = wire.NewServer(ln, b.svc)
	go func() { b.served <- b.srv.Serve() }()
	return b
}

// The router places a request by hashing its shape key onto a ring of the
// backends' addresses, and the ports are ephemeral: left alone, one run
// dealt the busier of fleet_open's two backends 54 % of the same seed's
// requests and another run 86 %, which is a different system each time (it
// moved latency_p50_us by a fifth between runs of the same code). So the
// harness draws the ports placementDraws times and keeps the draw whose ring
// splits the load most evenly: every run then measures about the same
// placement, the one an operator would want.
const placementDraws = 32

// listen opens n loopback listeners on ephemeral ports. A non-nil load is
// the request set a router will place on them: the ports are then the most
// even of placementDraws draws.
func listen(n int, load []service.Request) ([]net.Listener, error) {
	draws := 1
	if load != nil {
		draws = placementDraws
	}
	var best []net.Listener
	bestShare := 2.0
	for d := 0; d < draws; d++ {
		lns := make([]net.Listener, 0, n)
		ring := fleet.NewRing(0)
		for len(lns) < n {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll(lns)
				closeAll(best)
				return nil, err
			}
			lns = append(lns, ln)
			ring.Add(ln.Addr().String())
		}
		if share := busiestShare(ring, load); share < bestShare {
			closeAll(best)
			best, bestShare = lns, share
		} else {
			closeAll(lns)
		}
	}
	return best, nil
}

// busiestShare is the share of load the ring deals to the member it deals
// the most to.
func busiestShare(ring *fleet.Ring, load []service.Request) float64 {
	dealt := map[string]int{}
	busiest := 0
	for i := range load {
		member, _ := ring.Lookup(fleet.ShapeKey(load[i]))
		dealt[member]++
		busiest = max(busiest, dealt[member])
	}
	return float64(busiest) / float64(max(len(load), 1))
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

func (b *backend) addr() string { return b.srv.Addr().String() }

// stop drains the server, then the service, and waits for Serve to return.
func (b *backend) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	b.svc.Close()
	if serr := <-b.served; !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}

// harness is the serving system under test plus the generator's
// connections to it.
type harness struct {
	backends []*backend
	router   *fleet.Router
	routed   chan error
	clients  []*wire.Client
	timers   []*timerFD // one per connection, for the open loop's pacing
}

// startHarness starts one daemon, or, when routedLoad is the request set a
// router is to place, two daemons with the router in front of them, and
// dials conns generator connections to the front.
func startHarness(routedLoad []service.Request) (*harness, error) {
	h := &harness{}
	nBackends := 1
	if routedLoad != nil {
		nBackends = 2
	}
	lns, err := listen(nBackends, routedLoad)
	if err != nil {
		return nil, err
	}
	for _, ln := range lns {
		h.backends = append(h.backends, startBackend(ln))
	}
	front := h.backends[0].addr()
	if routedLoad != nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.stop()
			return nil, err
		}
		addrs := make([]string, len(h.backends))
		for i, b := range h.backends {
			addrs[i] = b.addr()
		}
		h.router = fleet.NewRouter(ln, fleet.Config{Backends: addrs})
		h.routed = make(chan error, 1)
		go func() { h.routed <- h.router.Serve() }()
		front = h.router.Addr().String()
		if err := h.awaitHealthy(addrs); err != nil {
			h.stop()
			return nil, err
		}
	}
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(front)
		if err != nil {
			h.stop()
			return nil, err
		}
		h.clients = append(h.clients, c)
		t, err := newTimerFD()
		if err != nil {
			h.stop()
			return nil, err
		}
		h.timers = append(h.timers, t)
	}
	return h, nil
}

// awaitHealthy waits until the router reports a live connection to every
// backend (it dials them in the background).
func (h *harness) awaitHealthy(addrs []string) error {
	deadline := time.Now().Add(stopTimeout)
	for {
		gauges := h.router.Telemetry().Gauges
		up := 0
		for _, a := range addrs {
			if gauges[`fleet_backend_healthy{backend="`+a+`"}`] == 1 {
				up++
			}
		}
		if up == len(addrs) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router: %d of %d backends healthy after %v", up, len(addrs), stopTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the harness down in dependency order: generator connections,
// router, servers, services. The first error wins; every step still runs.
func (h *harness) stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range h.clients {
		keep(c.Close())
	}
	h.clients = nil
	for _, t := range h.timers {
		keep(t.f.Close())
	}
	h.timers = nil
	if h.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
		keep(h.router.Shutdown(ctx))
		cancel()
		if err := <-h.routed; !errors.Is(err, net.ErrClosed) {
			keep(err)
		}
		h.router = nil
	}
	for _, b := range h.backends {
		keep(b.stop())
	}
	h.backends = nil
	return first
}

// specViolations sums the services' own sampled spec failures.
func (h *harness) specViolations() uint64 {
	var n uint64
	for _, b := range h.backends {
		n += b.svc.Stats().SpecViolations
	}
	return n
}

// sample is one reply copied aside during a window for re-checking with
// spec.Check once the window has closed.
type sample struct {
	req *service.Request
	dec []types.Value
}

// sampled reports whether operation idx belongs to the seeded 1-in-64
// sample of replies that are re-checked.
func sampled(seed int64, idx int) bool {
	x := uint64(seed) ^ uint64(idx)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x^(x>>31))&63 == 0
}

// replyOK is the check made on every reply as it arrives.
func replyOK(req *service.Request, r wire.Result) bool {
	return r.Status == wire.StatusOK && len(r.Resp.Decisions) == req.N && (!r.Resp.Checked || r.Resp.OK)
}

// decisionsOK re-checks one reply against the applicable D.1–D.4 condition
// and, within u faults, the m+1 floor.
func decisionsOK(req *service.Request, dec []types.Value) bool {
	var faulty types.NodeSet
	for _, f := range req.Faults {
		faulty = faulty.Add(f.Node)
	}
	decisions := make(map[types.NodeID]types.Value, len(dec))
	for i, d := range dec {
		decisions[types.NodeID(i)] = d
	}
	v := spec.Check(spec.Execution{
		M: req.M, U: req.U, Sender: req.Sender, SenderValue: req.Value,
		Faulty: faulty, Decisions: decisions,
	})
	return v.OK && (v.Condition == "none" || v.Graceful)
}

// closedPass drives one whole pass of a closed loop: one sender goroutine
// per connection keeps depth requests outstanding over its own stream
// (pipelined Client.Send; a server answers one connection in arrival order,
// so waiting on the oldest request times each reply as it lands).
func closedPass(clients []*wire.Client, reqs [][]service.Request, depth int, seed int64, keep *[]sample) pass {
	type outcome struct {
		lat     []int64
		failed  int
		samples []sample
	}
	outs := make([]outcome, len(clients))
	var wg sync.WaitGroup
	m := startMeter()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			stream := reqs[c]
			out.lat = make([]int64, 0, len(stream))
			type pending struct {
				ch  <-chan wire.Result
				t0  time.Time
				idx int
			}
			ring := make([]pending, depth)
			head, inflight := 0, 0
			reap := func() {
				p := ring[head%depth]
				head++
				inflight--
				r, ok := <-p.ch
				lat := time.Since(p.t0)
				req := &stream[p.idx]
				if !ok || !replyOK(req, r) {
					out.failed++
					return
				}
				out.lat = append(out.lat, int64(lat))
				if sampled(seed, p.idx*len(clients)+c) {
					out.samples = append(out.samples, sample{req: req, dec: r.Resp.Decisions})
				}
			}
			for i := range stream {
				if inflight == depth {
					reap()
				}
				t0 := time.Now()
				ch, err := clients[c].Send(stream[i])
				if err != nil {
					out.failed++
					continue
				}
				ring[(head+inflight)%depth] = pending{ch: ch, t0: t0, idx: i}
				inflight++
			}
			for inflight > 0 {
				reap()
			}
		}(c)
	}
	wg.Wait()
	var p pass
	m.stop(&p)
	for i := range outs {
		p.lat = append(p.lat, outs[i].lat...)
		p.failed += outs[i].failed
		*keep = append(*keep, outs[i].samples...)
	}
	p.ops = len(p.lat)
	return p
}

// timerFD is a Linux timerfd read through the Go poller: a sleep that
// wakes with the kernel's high-resolution timer and parks only the calling
// goroutine. The runtime's own timers are rounded up to whole milliseconds
// while the process is otherwise idle (time.Sleep ran a median 540 µs late
// at the fleet_open arrival gaps on the reference box, this 30 µs), and
// that lateness would be charged to every request as latency.
type timerFD struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newTimerFD() (*timerFD, error) {
	const clockMonotonic, nonblock, cloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock|cloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timerFD{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep arms the timer once for d and waits for it to fire.
func (t *timerFD) sleep(d time.Duration) error {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := t.f.Read(t.buf[:])
	return err
}

// openPass drives one whole pass of the open loop: arrival i is sent on
// connection i mod conns when its due time comes, whatever the system's
// state, and its latency is timed from the due time, so a stall is charged
// to every request it delayed. The pass lasts exactly span: the arrival
// process keeps its rate across passes.
func openPass(clients []*wire.Client, timers []*timerFD, arrivals []openArrival, span int64, seed int64, keep *[]sample) pass {
	lat := make([]int64, len(arrivals))  // <0: failed
	late := make([]int64, len(arrivals)) // generator lateness
	decs := make([][]types.Value, len(arrivals))
	var senders, waiters sync.WaitGroup
	m := startMeter()
	start := time.Now().Add(time.Millisecond)
	for c := range clients {
		senders.Add(1)
		go func(c int) {
			defer senders.Done()
			for i := c; i < len(arrivals); i += len(clients) {
				a := &arrivals[i]
				due := start.Add(time.Duration(a.dueNs))
				if d := time.Until(due); d > 0 {
					if err := timers[c].sleep(d); err != nil {
						lat[i] = -1
						continue
					}
				}
				if l := time.Since(due); l > 0 {
					late[i] = int64(l)
				}
				ch, err := clients[c].SendTagged(a.req, wire.Tag{Tenant: a.req.Tenant})
				if err != nil {
					lat[i] = -1
					continue
				}
				waiters.Add(1)
				go func(i int) {
					defer waiters.Done()
					r, ok := <-ch
					done := time.Since(due)
					if !ok || !replyOK(&arrivals[i].req, r) {
						lat[i] = -1
						return
					}
					lat[i] = int64(done)
					if sampled(seed, i) {
						decs[i] = r.Resp.Decisions
					}
				}(i)
			}
		}(c)
	}
	senders.Wait()
	waiters.Wait()
	if d := time.Until(start.Add(time.Duration(span))); d > 0 {
		time.Sleep(d)
	}
	var p pass
	m.stop(&p)
	p.late = late
	for i, l := range lat {
		if l < 0 {
			p.failed++
			continue
		}
		p.lat = append(p.lat, l)
		if float64(l) > sloLimitUs*1e3 {
			p.slow++
		}
		if decs[i] != nil {
			*keep = append(*keep, sample{req: &arrivals[i].req, dec: decs[i]})
		}
	}
	p.ops = len(p.lat)
	return p
}

// serving is the workload value of serve_fast, serve_deep and fleet_open.
type serving struct {
	name  string
	seed  int64
	scale float64
	in    inputs
	h     *harness
	keep  []sample
}

func (w *serving) setup() error {
	var err error
	if w.in, err = genInputs(w.name, w.seed, w.scale); err != nil {
		return err
	}
	w.h, err = startHarness(openRequests(w.in.open))
	if err != nil {
		return err
	}
	// Warm-up is one whole pass, so pools, the PathRanker cache and the
	// outbox templates of every shape in the set are built before timing.
	if p := w.pass(); p.failed > 0 {
		return fmt.Errorf("%s: %d of %d warm-up requests failed", w.name, p.failed, p.failed+p.ops)
	}
	w.keep = w.keep[:0]
	return nil
}

func (w *serving) pass() pass {
	switch w.name {
	case "serve_fast":
		return closedPass(w.h.clients, w.in.reqs, fastDepth, w.seed, &w.keep)
	case "serve_deep":
		return closedPass(w.h.clients, w.in.reqs, 1, w.seed, &w.keep)
	default:
		return openPass(w.h.clients, w.h.timers, w.in.open, w.in.span, w.seed, &w.keep)
	}
}

// verify runs the checks that wait for the window to close: the sampled
// replies against spec.Check, and the services' own violation counters.
func (w *serving) verify() (checked, failed int) {
	for _, s := range w.keep {
		if !decisionsOK(s.req, s.dec) {
			failed++
		}
	}
	return len(w.keep), failed + int(w.h.specViolations())
}

func (w *serving) teardown() error {
	if w.h == nil {
		return nil
	}
	err := w.h.stop()
	w.h = nil
	return err
}
