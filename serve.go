package degradable

import (
	"net"

	"degradable/internal/adversary"
	"degradable/internal/service"
	"degradable/internal/wire"
)

// Agreement-as-a-service: the sharded concurrent runtime of
// internal/service and its TCP transport, re-exported so callers embed or
// operate the service through the facade vocabulary.
type (
	// Service is the sharded agreement-serving runtime: bounded admission
	// queues with explicit backpressure, shape-batched execution on pooled
	// instances, and continuous spec sampling.
	Service = service.Service
	// ServiceConfig parameterizes a Service.
	ServiceConfig = service.Config
	// ServiceStats is a snapshot of service counters.
	ServiceStats = service.Stats
	// Request is one agreement instance to execute.
	Request = service.Request
	// Response reports one executed instance.
	Response = service.Response
	// FaultSpec arms one node of a Request (same vocabulary as Fault).
	FaultSpec = service.FaultSpec
	// Server exposes a Service over TCP with graceful shutdown.
	Server = wire.Server
	// Client is a pipelining TCP client for a served Service.
	Client = wire.Client
)

// Service admission errors, matchable with errors.Is.
var (
	// ErrOverloaded marks a request rejected by a full shard queue.
	ErrOverloaded = service.ErrOverloaded
	// ErrServiceClosed marks a request submitted after shutdown began.
	ErrServiceClosed = service.ErrClosed
	// ErrInvalidRequest wraps admission-time validation failures.
	ErrInvalidRequest = service.ErrInvalid
)

// NewService starts an in-process agreement service.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Serve exposes svc on ln and blocks accepting connections (the degradable serve
// daemon in one call). Shut down with (*Server).Shutdown; Serve then
// returns net.ErrClosed.
func Serve(ln net.Listener, svc *Service) (*Server, error) {
	srv := wire.NewServer(ln, svc)
	return srv, srv.Serve()
}

// NewServer wraps an already-listening socket without blocking; call
// (*Server).Serve to accept.
func NewServer(ln net.Listener, svc *Service) *Server { return wire.NewServer(ln, svc) }

// Dial connects to a serve daemon.
func Dial(addr string) (*Client, error) { return wire.Dial(addr) }

// ServiceFault converts a facade Fault into the service request form.
func ServiceFault(f Fault) FaultSpec {
	return FaultSpec{Node: f.Node, Kind: adversary.Kind(f.Kind), Value: f.Value, Seed: f.Seed}
}
