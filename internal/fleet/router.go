package fleet

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"degradable/internal/obs"
	"degradable/internal/service"
	"degradable/internal/wire"
)

// errUnavailable reports a request with no backend able to take it.
var errUnavailable = errors.New("fleet: no backend available")

// shutdownGrace mirrors the wire server's drain contract: after Shutdown
// begins, client readers keep draining already-sent frames for this long,
// and everything read is forwarded and answered before the conn closes.
const shutdownGrace = 250 * time.Millisecond

// Indices into the router's counter set.
const (
	statRouted       = iota // requests forwarded to a backend
	statAnswered            // backend responses relayed with StatusOK
	statShedQuota           // requests shed by per-tenant admission
	statShedUnavail         // requests with no healthy backend
	statBackendErr          // non-OK answers relayed or synthesized
	statCorrMismatch        // echoed correlation tags naming the wrong conn
	statRedial              // failed backend dial attempts
	statBackendLost         // in-flight calls orphaned by a conn death
	numStats
)

var statNames = []string{
	"routed_total", "answered_total", "shed_quota_total",
	"shed_unavailable_total", "backend_error_total", "corr_mismatch_total",
	"redial_total", "backend_lost_total",
}

// Config parameterizes a Router.
type Config struct {
	// Backends are the initial backend addresses.
	Backends []string
	// ConnsPerBackend is the pipelined-connection pool size per backend
	// (default 2): enough to overlap flushes, few enough that the daemon's
	// per-conn goroutines stay cheap.
	ConnsPerBackend int
	// VNodes is the consistent-hash virtual-node count per backend
	// (default 64).
	VNodes int
	// LoadFactor is the bounded-load ceiling c: no backend is handed more
	// than ceil(c · total-in-flight / backends) concurrent requests while
	// any less-loaded preference survives (default 1.25).
	LoadFactor float64
	// Quotas caps tenants with token buckets; unlisted tenants are
	// unlimited.
	Quotas map[uint32]Quota
	// Sink, when non-nil, receives an obs.EvVerdict event for every
	// spec-checked response relayed through the router — the same trace
	// taxonomy degradable serve emits, observed in transit (-trace parity).
	Sink obs.Sink
}

func (c Config) withDefaults() Config {
	if c.ConnsPerBackend <= 0 {
		c.ConnsPerBackend = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	return c
}

// Router is the stateless L7 fleet router: it accepts wire-protocol client
// connections, places each request on a backend by consistent-hashed
// shape, multiplexes the forwarded stream onto a few pipelined backend
// connections per daemon, and relays responses back to the exact client
// connection and frame ID they answer.
type Router struct {
	cfg Config
	ln  net.Listener

	ring *Ring
	adm  *Admission

	mu       sync.Mutex
	backends map[string]*backend
	closed   bool

	quit     chan struct{}
	conns    map[net.Conn]struct{}
	active   sync.WaitGroup
	nextConn atomic.Uint32

	stats     *obs.CounterSet
	sheds     *obs.Labeled   // per-tenant quota sheds
	beLatency *obs.Histogram // router→backend tier
}

// NewRouter wraps an already-listening socket and dials the configured
// backends in the background (health, not construction, gates traffic).
func NewRouter(ln net.Listener, cfg Config) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:       cfg,
		ln:        ln,
		ring:      NewRing(cfg.VNodes),
		adm:       NewAdmission(),
		backends:  make(map[string]*backend),
		quit:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		stats:     obs.NewCounterSet(statNames...),
		sheds:     obs.NewLabeled("tenant"),
		beLatency: obs.NewHistogram(),
	}
	for tenant, q := range cfg.Quotas {
		rt.adm.SetQuota(tenant, q)
	}
	for _, addr := range cfg.Backends {
		rt.AddBackend(addr)
	}
	return rt
}

// Addr returns the listener address.
func (rt *Router) Addr() net.Addr { return rt.ln.Addr() }

// AddBackend adds a backend to the placement ring and starts dialing it.
// Adding an existing address is a no-op.
func (rt *Router) AddBackend(addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	if _, ok := rt.backends[addr]; ok {
		return
	}
	rt.backends[addr] = newBackend(rt, addr)
	rt.ring.Add(addr)
}

// RemoveBackend drains a backend live: it leaves the placement ring
// immediately (no new requests), in-flight requests finish, and only then
// do its connections close. ctx bounds the drain.
func (rt *Router) RemoveBackend(ctx context.Context, addr string) error {
	rt.mu.Lock()
	b := rt.backends[addr]
	delete(rt.backends, addr)
	rt.ring.Remove(addr)
	rt.mu.Unlock()
	if b == nil {
		return nil
	}
	return b.drain(ctx)
}

// Backends returns the current backend addresses in sorted order.
func (rt *Router) Backends() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	addrs := make([]string, 0, len(rt.backends))
	for addr := range rt.backends {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}

// pick places a key: the bounded-load consistent-hash walk first, then
// rendezvous hashing over the healthy set when every preferred member is
// at capacity. Returns nil when no backend is healthy.
//
// The backend map is snapshotted up front so the Walk accept closure runs
// without rt.mu: Walk holds ring.mu, and AddBackend/RemoveBackend take
// rt.mu before ring.mu — touching rt.mu from inside the walk would make
// routing concurrent with a live drain an ABBA deadlock.
func (rt *Router) pick(key uint64) *backend {
	rt.mu.Lock()
	snap := make(map[string]*backend, len(rt.backends))
	for addr, b := range rt.backends {
		snap[addr] = b
	}
	rt.mu.Unlock()
	healthy := make([]string, 0, len(snap))
	var total int64
	for addr, b := range snap {
		if b.healthy.Load() {
			healthy = append(healthy, addr)
			total += b.inflight.Load()
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	capacity := int64(math.Ceil(rt.cfg.LoadFactor * float64(total+1) / float64(len(healthy))))
	if capacity < 1 {
		capacity = 1
	}
	member, ok := rt.ring.Walk(key, func(m string) bool {
		b := snap[m]
		return b != nil && b.healthy.Load() && b.inflight.Load() < capacity
	})
	if !ok {
		member, ok = Rendezvous(healthy, key)
		if !ok {
			return nil
		}
	}
	return snap[member]
}

// Serve accepts connections until Shutdown. It always returns a non-nil
// error; after Shutdown the error is net.ErrClosed.
func (rt *Router) Serve() error {
	for {
		conn, err := rt.ln.Accept()
		if err != nil {
			return err
		}
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		rt.conns[conn] = struct{}{}
		rt.active.Add(1)
		rt.mu.Unlock()
		go rt.handle(conn)
	}
}

// outFrame is one response queued for a client connection's writer.
type outFrame struct {
	id     uint64
	tag    wire.Tag
	tagged bool
	st     wire.Status
	resp   service.Response
	errmsg string
}

// clientConn is the router-side state of one client connection: a writer
// goroutine fed by a channel that both the reader (local sheds) and every
// backend readLoop (relayed responses) produce into, plus a WaitGroup
// tracking forwarded requests so the channel closes only after the last
// in-flight response has been delivered.
type clientConn struct {
	rt   *Router
	id   uint32
	conn net.Conn
	out  chan outFrame
	wg   sync.WaitGroup // forwarded requests not yet delivered to out
}

// finish delivers a forwarded request's response and releases its
// in-flight slot. Called exactly once per forwarded request.
func (cc *clientConn) finish(f outFrame) {
	cc.out <- f
	cc.wg.Done()
}

// handle runs one client connection: the reader admits, places, and
// forwards frames; the writer relays responses (in whatever order backends
// answer — clients demultiplex by frame ID). On shutdown the reader drains
// under the grace deadline and every forwarded request is still answered
// before the connection closes.
func (rt *Router) handle(conn net.Conn) {
	defer rt.active.Done()
	defer func() {
		rt.mu.Lock()
		delete(rt.conns, conn)
		rt.mu.Unlock()
		conn.Close()
	}()

	cc := &clientConn{rt: rt, id: rt.nextConn.Add(1), conn: conn, out: make(chan outFrame, 256)}

	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() { // writer
		defer wwg.Done()
		bw := bufio.NewWriter(conn)
		var buf []byte
		broken := false
		for f := range cc.out {
			if broken {
				continue // keep draining so finish never blocks
			}
			buf = buf[:0]
			var err error
			if f.tagged {
				buf, err = wire.AppendTaggedResponse(buf, f.id, f.tag, f.st, f.resp, f.errmsg)
			} else {
				buf, err = wire.AppendResponse(buf, f.id, f.st, f.resp, f.errmsg)
			}
			if err != nil {
				continue // unencodable response; drop rather than desync
			}
			if _, err := bw.Write(buf); err != nil {
				broken = true
				continue
			}
			if len(cc.out) == 0 {
				if err := bw.Flush(); err != nil {
					broken = true
				}
			}
		}
		if !broken {
			bw.Flush()
		}
	}()

	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-rt.quit:
			conn.SetReadDeadline(time.Now().Add(shutdownGrace))
		case <-stopWatch:
		}
	}()

	br := bufio.NewReader(conn)
	var frame []byte
	for {
		payload, err := wire.ReadFrameInto(br, frame)
		if err != nil {
			break
		}
		frame = payload
		id, tag, tagged, req, err := wire.DecodeAnyRequest(payload)
		if err != nil {
			break // framing lost; sever
		}
		if !rt.adm.Admit(req.Tenant) {
			rt.stats.Inc(statShedQuota)
			rt.sheds.Get(service.TenantKey(req.Tenant)).Inc()
			cc.out <- outFrame{id: id, tag: tag, tagged: tagged, st: wire.StatusQuota,
				errmsg: service.ErrQuota.Error()}
			continue
		}
		b := rt.pick(ShapeKey(req))
		if b == nil {
			rt.stats.Inc(statShedUnavail)
			cc.out <- outFrame{id: id, tag: tag, tagged: tagged, st: wire.StatusError,
				errmsg: errUnavailable.Error()}
			continue
		}
		c := &call{cc: cc, clientID: id, tag: tag, tagged: tagged, start: time.Now()}
		cc.wg.Add(1)
		b.inflight.Add(1)
		if err := b.send(c, req); err != nil {
			b.inflight.Add(-1)
			rt.stats.Inc(statBackendErr)
			cc.finish(outFrame{id: id, tag: tag, tagged: tagged, st: wire.StatusError,
				errmsg: err.Error()})
			continue
		}
		rt.stats.Inc(statRouted)
	}
	close(stopWatch)
	go func() {
		cc.wg.Wait()
		close(cc.out)
	}()
	wwg.Wait()
}

// Sheds returns the per-tenant quota-shed counters.
func (rt *Router) Sheds() *obs.Labeled { return rt.sheds }

// healthyByBackend reports each backend's health bit as a gauge map.
func (rt *Router) healthyByBackend() map[string]float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := make(map[string]float64, len(rt.backends))
	for addr, b := range rt.backends {
		v := 0.0
		if b.healthy.Load() {
			v = 1
		}
		m[addr] = v
	}
	return m
}

// Register mounts the router's telemetry under the fleet_ prefix:
// placement/shed/redial counters, per-tenant quota sheds, per-backend
// health gauges, and the router→backend latency tier.
func (rt *Router) Register(reg *obs.Registry) {
	reg.CounterSet("fleet", "router counter", rt.stats)
	reg.Labeled("fleet_admission_shed_total",
		"requests shed by per-tenant token-bucket admission", rt.sheds)
	reg.LabeledGauge("fleet_backend_healthy", "backend",
		"1 when the backend has a live pooled connection", rt.healthyByBackend)
	reg.Gauge("fleet_backends", "backends in the placement ring", func() (float64, bool) {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return float64(len(rt.backends)), true
	})
	reg.Gauge("fleet_inflight", "requests in flight to backends", func() (float64, bool) {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		var total int64
		for _, b := range rt.backends {
			total += b.inflight.Load()
		}
		return float64(total), true
	})
	reg.Histogram("fleet_backend_latency",
		"router-to-backend request latency (the inner tier of the fleet benchmark)",
		rt.beLatency.Snapshot)
}

// Telemetry returns the router's full metric set as the unified snapshot.
func (rt *Router) Telemetry() obs.Snapshot {
	reg := obs.NewRegistry()
	rt.Register(reg)
	return reg.Snapshot()
}

// Shutdown gracefully stops the router: the listener closes, client
// readers drain under the grace deadline, every forwarded request is
// answered and flushed, and the backends drain and close. ctx bounds the
// wait; on expiry remaining connections are severed.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	rt.mu.Unlock()

	rt.ln.Close()
	close(rt.quit)

	finished := make(chan struct{})
	go func() {
		rt.active.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		rt.mu.Lock()
		for conn := range rt.conns {
			conn.Close()
		}
		rt.mu.Unlock()
		<-finished
	}

	rt.mu.Lock()
	backends := make([]*backend, 0, len(rt.backends))
	for addr, b := range rt.backends {
		backends = append(backends, b)
		rt.ring.Remove(addr)
		delete(rt.backends, addr)
	}
	rt.mu.Unlock()
	for _, b := range backends {
		b.close()
	}
	return err
}
