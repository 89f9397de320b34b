package wire

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/obs"
	"degradable/internal/service"
	"degradable/internal/types"
)

// startServer boots a daemon on a loopback ephemeral port.
func startServer(t *testing.T, cfg service.Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, service.New(cfg))
	go srv.Serve()
	return srv, ln.Addr().String()
}

// TestEndToEnd drives a mixed fault/no-fault workload over real TCP and
// checks the responses against the protocol's guarantees.
func TestEndToEnd(t *testing.T) {
	srv, addr := startServer(t, service.Config{Shards: 2, SpecSample: 1})
	defer srv.Shutdown(context.Background())

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	for i := 0; i < 50; i++ {
		req := service.Request{N: 5, M: 1, U: 2, Value: types.Value(i)}
		if i%2 == 1 {
			req.Faults = []adversary.FaultSpec{{Node: 2, Kind: adversary.KindTwoFaced, Value: 999}}
		}
		res, err := c.Do(ctx, req)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if res.Status != StatusOK {
			t.Fatalf("req %d: status %v (%s)", i, res.Status, res.Errmsg)
		}
		if len(res.Resp.Decisions) != 5 {
			t.Fatalf("req %d: %d decisions", i, len(res.Resp.Decisions))
		}
		// f ≤ m, so every fault-free node must decide the sender's value.
		for id := 0; id < 5; id++ {
			if i%2 == 1 && id == 2 {
				continue
			}
			if res.Resp.Decisions[id] != req.Value {
				t.Errorf("req %d node %d: %s, want %s", i, id, res.Resp.Decisions[id], req.Value)
			}
		}
		if !res.Resp.Checked || !res.Resp.OK {
			t.Errorf("req %d: Checked=%v OK=%v reason=%q", i, res.Resp.Checked, res.Resp.OK, res.Resp.Reason)
		}
	}
	// Invalid request gets a status, not a broken connection.
	res, err := c.Do(ctx, service.Request{N: 4, M: 1, U: 2, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInvalid {
		t.Fatalf("invalid request: status %v", res.Status)
	}
	// The connection survives and keeps serving.
	res, err = c.Do(ctx, service.Request{N: 5, M: 1, U: 2, Value: 5})
	if err != nil || res.Status != StatusOK {
		t.Fatalf("post-invalid request: %v / %v", err, res.Status)
	}
	if st := srv.Service().Stats(); st.SpecViolations != 0 {
		t.Fatalf("spec violations: %d", st.SpecViolations)
	}
}

// TestUnknownKindInvalid: a fault kind outside the built-in set is a
// malformed request, refused at admission with StatusInvalid before any
// work, not an execution error on a shard.
func TestUnknownKindInvalid(t *testing.T) {
	srv, addr := startServer(t, service.Config{Shards: 1})
	defer srv.Shutdown(context.Background())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, kind := range []adversary.Kind{0, 6, 255} {
		res, err := c.Do(context.Background(), service.Request{N: 5, M: 1, U: 2, Value: 1,
			Faults: []adversary.FaultSpec{{Node: 2, Kind: kind}}})
		if err != nil || res.Status != StatusInvalid {
			t.Errorf("kind %d: status %v, err %v; want %v", int(kind), res.Status, err, StatusInvalid)
		}
	}
	if st := srv.Service().Stats(); st.Accepted != 0 || st.Completed != 0 {
		t.Errorf("unknown kinds were admitted: %+v", st)
	}
}

// TestPipelining issues many concurrent requests over one connection and
// checks each response is demultiplexed to its caller.
func TestPipelining(t *testing.T) {
	srv, addr := startServer(t, service.Config{Shards: 2, QueueDepth: 4096})
	defer srv.Shutdown(context.Background())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 8
	const per = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := types.Value(w*10000 + i)
				res, err := c.Do(context.Background(), service.Request{N: 5, M: 1, U: 2, Value: v})
				if err != nil {
					errs <- err
					return
				}
				if res.Status == StatusOverloaded {
					continue
				}
				// Demux check: the decisions must carry OUR value, not
				// another worker's.
				if res.Status != StatusOK || res.Resp.Decisions[1] != v {
					errs <- errMismatch(w, i, res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct {
	w, i int
	res  Result
}

func errMismatch(w, i int, res Result) error { return &mismatchError{w, i, res} }
func (e *mismatchError) Error() string {
	return "worker mismatch: response did not match the request that sent it"
}

// TestGracefulShutdown checks the acceptance contract: a shutdown racing
// in-flight requests leaves none unanswered — every request either gets a
// full response or a clean connection error, never a silent drop.
func TestGracefulShutdown(t *testing.T) {
	srv, addr := startServer(t, service.Config{Shards: 2, QueueDepth: 1024})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pipeline a burst without waiting, then shut down while they are in
	// flight.
	const inflight = 200
	chans := make([]<-chan Result, 0, inflight)
	for i := 0; i < inflight; i++ {
		ch, err := c.Send(service.Request{N: 7, M: 2, U: 2, Value: types.Value(i)})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	first := awaitAccepted(t, chans[0])
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()

	answered, failed := 0, 0
	count := func(r Result) {
		if r.Status == StatusOK || r.Status == StatusClosed || r.Status == StatusOverloaded {
			answered++
		} else {
			t.Fatalf("unexpected status %v: %s", r.Status, r.Errmsg)
		}
	}
	count(first)
	for _, ch := range chans[1:] {
		select {
		case r, ok := <-ch:
			if !ok {
				failed++ // connection died before this response: reported, not dropped
				continue
			}
			count(r)
		case <-time.After(30 * time.Second):
			t.Fatal("request neither answered nor failed after shutdown")
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if answered == 0 {
		t.Fatal("no request answered across a graceful shutdown")
	}
	t.Logf("answered=%d failed=%d", answered, failed)

	// After shutdown the port refuses connections.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownAnswersAll is the strict variant: requests are sent and the
// responses awaited while a shutdown starts only after the sends complete.
// Every admitted request must receive a real response.
func TestShutdownAnswersAll(t *testing.T) {
	srv, addr := startServer(t, service.Config{Shards: 1, QueueDepth: 1024})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 100
	chans := make([]<-chan Result, n)
	for i := range chans {
		ch, err := c.Send(service.Request{N: 5, M: 1, U: 2, Value: types.Value(i)})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		chans[i] = ch
	}
	first := awaitAccepted(t, chans[0])
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	check := func(i int, r Result) {
		if r.Status != StatusOK {
			t.Fatalf("request %d: status %v (%s)", i, r.Status, r.Errmsg)
		}
		if r.Resp.Decisions[1] != types.Value(i) {
			t.Fatalf("request %d: wrong decisions", i)
		}
	}
	check(0, first)
	for i, ch := range chans[1:] {
		select {
		case r, ok := <-ch:
			if !ok {
				t.Fatalf("request %d: connection died before its response", i+1)
			}
			check(i+1, r)
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d unanswered", i+1)
		}
	}
}

// awaitAccepted waits for the reply to a burst's first request: proof that
// Serve has accepted the burst's connection and admitted a request from it.
// Shutdown closes the listener first, and a connection still waiting in the
// kernel's accept queue at that moment is reset without the server ever
// having seen it — every request on it fails cleanly, which says nothing
// about what a shutdown does to requests the server did admit.
func awaitAccepted(t *testing.T, ch <-chan Result) Result {
	t.Helper()
	select {
	case r, ok := <-ch:
		if !ok {
			t.Fatal("connection died before the shutdown began")
		}
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("first request unanswered before the shutdown began")
	}
	panic("unreachable")
}

// pipeListener accepts the server ends of net.Pipe connections the test
// hands it.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestShutdownAfterFailedWrite pins the end of a connection whose peer
// sends but never reads: the first response write trips Timeouts.Write,
// and the reader must stop rather than block forever on a response queue
// the failed writer no longer drains, so Shutdown returns within its
// context.
func TestShutdownAfterFailedWrite(t *testing.T) {
	ln := newPipeListener()
	srv := NewServer(ln, service.New(service.Config{Shards: 1, QueueDepth: 1}))
	srv.SetTimeouts(Timeouts{Write: 20 * time.Millisecond})
	go srv.Serve()
	client, server := net.Pipe()
	defer client.Close()
	ln.conns <- server
	go func() {
		var buf []byte
		for i := 0; i < 64; i++ {
			buf, _ = AppendRequest(buf[:0], uint64(i), service.Request{N: 5, M: 1, U: 2, Value: types.Value(i)})
			if _, err := client.Write(buf); err != nil {
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond) // past the write deadline: the writer has failed

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case <-done:
	case <-time.After(1200 * time.Millisecond):
		t.Fatal("Shutdown still blocked 1 s after its context expired")
	}
}

// verdictGate is a service Sink that lets the first spec verdict through
// and holds the second until the test releases it, holding the shard that
// emits it.
type verdictGate struct {
	mu      sync.Mutex
	n       int
	release chan struct{}
}

func (g *verdictGate) Emit(obs.Event) {
	g.mu.Lock()
	g.n++
	n := g.n
	g.mu.Unlock()
	if n == 2 {
		<-g.release
	}
}

// TestFlushesBeforeWaiting pins the writer's flush rule: a finished
// response is sent before the writer waits on the next request's outcome,
// not when that outcome arrives. The first request is fault-free, decided
// at submission; the second runs on the shard, which the gate holds at
// its spec verdict until the first response has been read.
func TestFlushesBeforeWaiting(t *testing.T) {
	gate := &verdictGate{release: make(chan struct{})}
	srv, addr := startServer(t, service.Config{Shards: 1, SpecSample: 1, Sink: gate})
	defer srv.Shutdown(context.Background())
	released := false
	release := func() {
		if !released {
			released = true
			close(gate.release)
		}
	}
	defer release()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fast, err := c.Send(service.Request{N: 5, M: 1, U: 2, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.Send(service.Request{N: 5, M: 1, U: 2, Value: 2,
		Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindSilent}}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-fast:
		if r.Status != StatusOK || r.Resp.Decisions[1] != 1 {
			t.Fatalf("fault-free response: %v %+v", r.Status, r.Resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fault-free response held back while the next request runs")
	}
	release()
	if r := <-slow; r.Status != StatusOK || r.Resp.Decisions[1] != 2 {
		t.Fatalf("armed response: %v %+v", r.Status, r.Resp)
	}
}
