package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"degradable/internal/service"
	"degradable/internal/types"
	"degradable/internal/wire"
)

// startDaemon runs an in-process wire server (a stand-in for degradable serve)
// and returns its address and a shutdown func.
func startDaemon(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Shards: 1, SpecSample: 4})
	srv := wire.NewServer(ln, svc)
	go srv.Serve()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

// startRouter wires a router in front of the given backends.
func startRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(ln, cfg)
	go rt.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, ln.Addr().String()
}

// waitHealthy blocks until every backend reports healthy.
func waitHealthy(t *testing.T, rt *Router, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		healthy := 0
		for _, v := range rt.healthyByBackend() {
			if v == 1 {
				healthy++
			}
		}
		if healthy >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("backends never became healthy: %v", rt.healthyByBackend())
}

func TestRouterEndToEnd(t *testing.T) {
	a, stopA := startDaemon(t)
	defer stopA()
	b, stopB := startDaemon(t)
	defer stopB()
	rt, addr := startRouter(t, Config{Backends: []string{a, b}})
	waitHealthy(t, rt, 2)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Several shapes so both backends see traffic with high probability.
	for n := 4; n <= 9; n++ {
		r, err := c.Do(ctx, service.Request{N: n, M: 1, U: 1, Value: types.Value(n * 11)})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if r.Status != wire.StatusOK {
			t.Fatalf("N=%d: status %v errmsg %q", n, r.Status, r.Errmsg)
		}
		if len(r.Resp.Decisions) != n || r.Resp.Decisions[1] != types.Value(n*11) {
			t.Fatalf("N=%d: decisions %v", n, r.Resp.Decisions)
		}
	}
	snap := rt.Telemetry()
	if snap.Counters["fleet_routed_total"] != 6 || snap.Counters["fleet_answered_total"] != 6 {
		t.Fatalf("routed=%d answered=%d, want 6/6",
			snap.Counters["fleet_routed_total"], snap.Counters["fleet_answered_total"])
	}
	if snap.Counters["fleet_corr_mismatch_total"] != 0 {
		t.Fatal("correlation mismatches on a clean run")
	}
	if snap.Histograms["fleet_backend_latency"].Count != 6 {
		t.Fatalf("backend latency count = %d", snap.Histograms["fleet_backend_latency"].Count)
	}
}

// TestInterleaveRouting is the multiplexing proof: many client
// connections pipeline concurrently through one router onto a small
// backend pool, every response must land on the connection that sent its
// request (checked by value: fault-free D.1 instances decide the sender's
// value), and the echoed correlation tags must all match.
func TestInterleaveRouting(t *testing.T) {
	a, stopA := startDaemon(t)
	defer stopA()
	b, stopB := startDaemon(t)
	defer stopB()
	rt, addr := startRouter(t, Config{Backends: []string{a, b}, ConnsPerBackend: 1})
	waitHealthy(t, rt, 2)

	const conns = 8
	const perConn = 50
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Pipeline everything, then await: responses may come back in
			// any order across backends; the client demuxes by frame ID.
			type sent struct {
				want types.Value
				ch   <-chan wire.Result
			}
			pending := make([]sent, 0, perConn)
			for i := 0; i < perConn; i++ {
				// Distinct value per (conn, i); shape varies so both
				// backends participate in the interleave.
				val := types.Value(ci*1000 + i + 1)
				req := service.Request{N: 4 + i%4, M: 1, U: 1, Value: val}
				ch, err := c.SendTagged(req, wire.Tag{Tenant: uint32(ci)})
				if err != nil {
					errs <- fmt.Errorf("conn %d send %d: %w", ci, i, err)
					return
				}
				pending = append(pending, sent{want: val, ch: ch})
			}
			for i, p := range pending {
				r, ok := <-p.ch
				if !ok {
					errs <- fmt.Errorf("conn %d: connection lost", ci)
					return
				}
				if r.Status != wire.StatusOK {
					errs <- fmt.Errorf("conn %d req %d: status %v %q", ci, i, r.Status, r.Errmsg)
					return
				}
				if r.Resp.Decisions[1] != p.want {
					errs <- fmt.Errorf("conn %d req %d: decided %v, want %v — response crossed connections",
						ci, i, r.Resp.Decisions[1], p.want)
					return
				}
				if !r.Tagged || r.Tag.Tenant != uint32(ci) {
					errs <- fmt.Errorf("conn %d req %d: tag %+v not echoed", ci, i, r.Tag)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := rt.Telemetry()
	if got := snap.Counters["fleet_answered_total"]; got != conns*perConn {
		t.Fatalf("answered %d, want %d", got, conns*perConn)
	}
	if snap.Counters["fleet_corr_mismatch_total"] != 0 {
		t.Fatal("correlation mismatch under interleave")
	}
}

// TestQuotaShed: a quota-capped tenant sheds with StatusQuota while an
// uncapped tenant on the same router is fully served.
func TestQuotaShed(t *testing.T) {
	a, stopA := startDaemon(t)
	defer stopA()
	rt, addr := startRouter(t, Config{
		Backends: []string{a},
		Quotas:   map[uint32]Quota{7: {Rate: 1, Burst: 3}},
	})
	waitHealthy(t, rt, 1)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	req := service.Request{N: 5, M: 1, U: 1, Value: 9}
	var okCount, quotaCount int
	for i := 0; i < 10; i++ {
		r, err := c.Do(ctx, req) // plain sends are tenant 0: uncapped
		if err != nil || r.Status != wire.StatusOK {
			t.Fatalf("uncapped tenant request %d: %v %v", i, err, r.Status)
		}
		rq, err := doTagged(t, c, wire.Tag{Tenant: 7}, req)
		if err != nil {
			t.Fatal(err)
		}
		switch rq.Status {
		case wire.StatusOK:
			okCount++
		case wire.StatusQuota:
			quotaCount++
			if rq.Errmsg == "" {
				t.Fatal("quota shed with no errmsg")
			}
		default:
			t.Fatalf("tenant 7 request %d: status %v", i, rq.Status)
		}
	}
	if okCount != 3 {
		t.Fatalf("capped tenant admitted %d, want burst=3", okCount)
	}
	if quotaCount != 7 {
		t.Fatalf("capped tenant shed %d, want 7", quotaCount)
	}
	if got := rt.Sheds().Get("7").Load(); got != 7 {
		t.Fatalf("shed counter = %d, want 7", got)
	}
	snap := rt.Telemetry()
	if snap.Counters[`fleet_admission_shed_total{tenant="7"}`] != 7 {
		t.Fatalf("per-tenant shed series: %v", snap.Counters)
	}
}

// doTagged is Do over a tagged frame: the tenant travels in the tag (a
// plain frame's Tenant field never leaves the client).
func doTagged(t *testing.T, c *wire.Client, tag wire.Tag, req service.Request) (wire.Result, error) {
	t.Helper()
	ch, err := c.SendTagged(req, tag)
	if err != nil {
		return wire.Result{}, err
	}
	r, ok := <-ch
	if !ok {
		return wire.Result{}, errors.New("connection lost")
	}
	return r, nil
}

// TestBackendLossFailover: shutting one backend down moves its traffic to
// the survivor; no request is silently dropped.
func TestBackendLossFailover(t *testing.T) {
	a, stopA := startDaemon(t)
	defer stopA()
	b, stopB := startDaemon(t)
	rt, addr := startRouter(t, Config{Backends: []string{a, b}})
	waitHealthy(t, rt, 2)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	stopB() // graceful daemon shutdown severs the router's pooled conns
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := rt.healthyByBackend()[b]; v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the dead backend")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Every shape must now be served by the survivor.
	for n := 4; n <= 9; n++ {
		r, err := c.Do(ctx, service.Request{N: n, M: 1, U: 1, Value: 5})
		if err != nil {
			t.Fatalf("N=%d after failover: %v", n, err)
		}
		if r.Status != wire.StatusOK {
			t.Fatalf("N=%d after failover: status %v %q", n, r.Status, r.Errmsg)
		}
	}
}

// TestDrainOnRemove: RemoveBackend takes a backend out of placement and
// returns only after its in-flight work finished; traffic continues on
// the survivor.
func TestDrainOnRemove(t *testing.T) {
	a, stopA := startDaemon(t)
	defer stopA()
	b, stopB := startDaemon(t)
	defer stopB()
	rt, addr := startRouter(t, Config{Backends: []string{a, b}})
	waitHealthy(t, rt, 2)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	if err := rt.RemoveBackend(ctx, b); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := rt.Backends(); len(got) != 1 || got[0] != a {
		t.Fatalf("backends after removal: %v", got)
	}
	for n := 4; n <= 9; n++ {
		r, err := c.Do(ctx, service.Request{N: n, M: 1, U: 1, Value: 5})
		if err != nil || r.Status != wire.StatusOK {
			t.Fatalf("N=%d after drain: %v %v", n, err, r.Status)
		}
	}
	if rt.Telemetry().Counters["fleet_shed_unavailable_total"] != 0 {
		t.Fatal("requests shed as unavailable with a healthy survivor")
	}
}

// TestForgetAfterFail pins the double-completion guard: when a backend
// conn dies, readLoop's fail() completes everything pending on it, so a
// send() racing with the death must see forget() report the call already
// gone and swallow its write error — otherwise the caller would complete
// the call a second time and double-Done the client conn's WaitGroup.
func TestForgetAfterFail(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(ln, Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	b := &backend{rt: rt, addr: "dead", kick: make(chan struct{}, 1), done: make(chan struct{})}
	close(b.done) // no maintain goroutine for this hand-built backend
	cli, srv := net.Pipe()
	srv.Close()
	bc := &beConn{b: b, conn: cli, w: wire.NewBurstWriter(cli), pending: make(map[uint64]*call)}
	b.conns = []*beConn{bc}

	cc := &clientConn{rt: rt, id: 9, out: make(chan outFrame, 2)}
	c := &call{cc: cc, clientID: 42, start: time.Now()}
	cc.wg.Add(1)
	b.inflight.Add(1)
	bc.pending[7] = c // as send() registers before writing

	bc.fail() // the conn-death path: must complete the pending call

	if got := b.inflight.Load(); got != 0 {
		t.Fatalf("inflight after fail = %d, want 0", got)
	}
	f := <-cc.out
	if f.id != 42 || f.st != wire.StatusError {
		t.Fatalf("completion frame = %+v, want client id 42 with error status", f)
	}
	if bc.forget(7) {
		t.Fatal("forget reported a call fail() already completed — send would double-complete it")
	}
	cc.wg.Wait() // balances only if the call was Done'd exactly once
}

// TestRoutingConcurrentWithChurn: request placement must not deadlock
// against live membership changes. AddBackend/RemoveBackend take rt.mu
// and then the ring lock; the placement walk holds the ring lock, so it
// must never reach back for rt.mu (lock-order inversion).
func TestRoutingConcurrentWithChurn(t *testing.T) {
	a, stopA := startDaemon(t)
	defer stopA()
	b, stopB := startDaemon(t)
	defer stopB()
	churn, stopC := startDaemon(t)
	defer stopC()
	rt, _ := startRouter(t, Config{Backends: []string{a, b}})
	waitHealthy(t, rt, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rt.pick(uint64(g*1_000_000 + i))
			}
		}(g)
	}
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < 40; i++ {
			rt.AddBackend(churn)
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			rt.RemoveBackend(ctx, churn)
			cancel()
		}
	}()
	select {
	case <-churned:
	case <-time.After(20 * time.Second):
		t.Fatal("membership churn deadlocked against routing")
	}
	close(stop)
	wg.Wait()
}

// TestNoBackendsSheds: with nothing healthy the router answers explicitly
// instead of hanging or dropping.
func TestNoBackendsSheds(t *testing.T) {
	rt, addr := startRouter(t, Config{})
	_ = rt
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := c.Do(ctx, service.Request{N: 5, M: 1, U: 1, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != wire.StatusError || r.Errmsg == "" {
		t.Fatalf("status %v errmsg %q, want explicit unavailable error", r.Status, r.Errmsg)
	}
	if errors.Is(errUnavailable, nil) {
		t.Fatal("unreachable")
	}
}
