package fleet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"degradable/internal/service"
	"degradable/internal/types"
	"degradable/internal/wire"
	"degradable/internal/wire/wiretest"
)

// gatedBackend hand-builds a backend with one pooled conn over a wiretest.GateConn
// (no maintain goroutine) and a client conn with room for n answers.
func gatedBackend(t *testing.T, n int) (*backend, *beConn, *wiretest.GateConn, *clientConn) {
	t.Helper()
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
	b := &backend{rt: rt, addr: "gated", kick: make(chan struct{}, 1), done: make(chan struct{})}
	close(b.done)
	g := wiretest.NewGateConn()
	bc := &beConn{b: b, conn: g, w: wire.NewBurstWriter(g), pending: make(map[uint64]*call)}
	b.conns = []*beConn{bc}
	return b, bc, g, &clientConn{rt: rt, id: 9, out: make(chan outFrame, n)}
}

// forward sends 16 calls the way the router's reader does: the first is
// idle and written inline (blocking in the gate), the other fifteen queue
// behind it. It returns once the first write is released and the loop's
// second write has started, and the frames the conn should see.
func forward(t *testing.T, b *backend, g *wiretest.GateConn, cc *clientConn) []byte {
	t.Helper()
	var want []byte
	first := make(chan error, 1)
	for i := 1; i <= 16; i++ {
		req := service.Request{N: 7, M: 1, U: 2, Sender: types.NodeID(i % 7), Value: types.Value(i), Tenant: uint32(i % 3)}
		var err error
		if want, err = wire.AppendTaggedRequest(want, uint64(i), wire.Tag{Tenant: req.Tenant, Corr: cc.id}, req); err != nil {
			t.Fatal(err)
		}
		c := &call{cc: cc, clientID: uint64(100 + i), start: time.Now()}
		cc.wg.Add(1)
		b.inflight.Add(1)
		if i == 1 {
			go func() { first <- b.send(c, req) }()
			<-g.Entered
			continue
		}
		if err := b.send(c, req); err != nil {
			t.Fatal(err)
		}
	}
	g.Release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-g.Entered
	return want
}

// TestBurstBackendCoalesces: sixteen calls forwarded while the first one's
// write blocks reach the backend in two writes, byte for byte the tagged
// frames in backend-ID order.
func TestBurstBackendCoalesces(t *testing.T) {
	b, bc, g, cc := gatedBackend(t, 16)
	want := forward(t, b, g, cc)
	g.Release <- nil
	bc.fail() // answers the 16 calls and stops the write loop
	cc.wg.Wait()
	g.NoMoreWrites(t)
	writes := g.Writes()
	if len(writes) != 2 {
		t.Fatalf("16 frames took %d writes, want 2", len(writes))
	}
	if got := bytes.Join(writes, nil); !bytes.Equal(got, want) {
		t.Fatalf("backend bytes differ from the tagged frames:\n got %x\nwant %x", got, want)
	}
}

// TestBurstBackendWriteFailure: a failed coalesced write closes the backend
// conn; its read loop's fail() answers every forwarded call exactly once
// with StatusError, and later sends are refused.
func TestBurstBackendWriteFailure(t *testing.T) {
	b, bc, g, cc := gatedBackend(t, 32)
	loopDone := make(chan struct{})
	go func() {
		bc.readLoop()
		close(loopDone)
	}()
	forward(t, b, g, cc)
	g.Release <- errors.New("boom: backend reset")
	<-loopDone
	cc.wg.Wait() // a second completion of any call would panic here or below
	close(cc.out)
	seen := map[uint64]int{}
	for f := range cc.out {
		if f.st != wire.StatusError {
			t.Fatalf("call %d answered %v, want an error status", f.id, f.st)
		}
		seen[f.id]++
	}
	for i := 1; i <= 16; i++ {
		if seen[uint64(100+i)] != 1 {
			t.Fatalf("call %d answered %d times, want once (all: %v)", 100+i, seen[uint64(100+i)], seen)
		}
	}
	if got := b.inflight.Load(); got != 0 {
		t.Fatalf("inflight after the failure = %d, want 0", got)
	}
	c := &call{cc: &clientConn{rt: b.rt, id: 9, out: make(chan outFrame, 1)}, clientID: 200, start: time.Now()}
	if err := b.send(c, service.Request{N: 7, M: 1, U: 2}); err == nil {
		t.Fatal("a send after the backend conn failed was accepted")
	}
}

// TestRouterConnDeathLeavesNoGoroutines: a router whose backend conns die
// and which is then shut down leaves the goroutine count at its baseline —
// every pooled conn's read and write loops have exited.
func TestRouterConnDeathLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	a, stopA := startDaemon(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(ln, Config{Backends: []string{a}})
	go rt.Serve()
	waitHealthy(t, rt, 1)
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for n := 4; n <= 9; n++ {
		if r, err := c.Do(ctx, service.Request{N: n, M: 1, U: 1, Value: 5}); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("N=%d: %v %v", n, err, r.Status)
		}
	}
	stopA() // the daemon's shutdown severs the router's pooled conns
	deadline := time.Now().Add(5 * time.Second)
	for rt.healthyByBackend()[a] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the dead backend")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Close()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
