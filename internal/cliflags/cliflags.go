// Package cliflags holds the flag definitions shared by the repo's network
// binaries (cmd/serve, cmd/node, cmd/cluster), so an address, profiling, or
// timeout flag spells and behaves identically everywhere — and so each
// binary's -h test can assert the shared surface without duplicating it.
package cliflags

import (
	"flag"
	"fmt"
	"net"
	"net/http"

	"degradable/internal/obs"
	"degradable/internal/wire"
)

// Addr registers the listen-address flag under the given name (cmd/serve
// uses "addr", cmd/node uses "listen" — same semantics, different habit).
func Addr(fs *flag.FlagSet, name, def string) *string {
	return fs.String(name, def, "listen address")
}

// PProf registers the opt-in profiling-endpoint flag.
func PProf(fs *flag.FlagSet) *string {
	return fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
}

// Shards registers the worker-shard count flag.
func Shards(fs *flag.FlagSet) *int {
	return fs.Int("shards", 0, "worker shards (default: GOMAXPROCS-aware service default)")
}

// Quota registers the per-tenant admission-quota flag of cmd/router.
func Quota(fs *flag.FlagSet) *string {
	return fs.String("quota", "",
		"per-tenant token-bucket quotas as tenant:rate[:burst] comma-separated; unlisted tenants are unlimited")
}

// Trace registers the round-event trace dump flag, shared by cmd/serve,
// cmd/cluster, and cmd/chaos.
func Trace(fs *flag.FlagSet) *string {
	return fs.String("trace", "", "dump the structured round-event stream to this JSONL file; empty disables")
}

// Graph registers the sparse-topology flag: scenarios run over this
// communication graph instead of the perfect complete-graph wire. A single
// family:params definition pins every scenario to one graph; a
// comma-separated list becomes a seeded per-scenario draw pool.
func Graph(fs *flag.FlagSet) *string {
	return fs.String("graph", "",
		"communication graph as family:params (complete:n, ring:n, hypercube:dim, harary:k:n, "+
			"bridge:n1:cut:n2, cliquering:cliques:size, gnp:n:p:seed); comma-separate for a draw pool; "+
			"empty keeps the complete-graph wire")
}

// Placement registers the fault-placement flag that accompanies -graph:
// where the adversary sits on a sparse graph decides whether Theorem 3's
// disjoint-path machinery is actually stressed.
func Placement(fs *flag.FlagSet) *string {
	return fs.String("placement", "",
		"fault placement on sparse graphs: uniform, cutset (pin liars on a minimum vertex cut), "+
			"or mixed; requires -graph")
}

// WireTimeouts registers the per-connection deadline flags and returns a
// getter for the parsed wire.Timeouts.
func WireTimeouts(fs *flag.FlagSet) func() wire.Timeouts {
	rd := fs.Duration("read-timeout", 0, "per-frame read deadline once a frame has begun (0 disables)")
	wr := fs.Duration("write-timeout", 0, "per-flush write deadline (0 disables)")
	idle := fs.Duration("idle-timeout", 0, "close connections quiet for longer than this between frames (0 disables)")
	return func() wire.Timeouts { return wire.Timeouts{Read: *rd, Write: *wr, Idle: *idle} }
}

// ServePProf binds the profiling listener when addr is non-empty and serves
// the default mux (which net/http/pprof registers on) in the background.
// The returned closer is non-nil exactly when a listener was bound.
func ServePProf(addr string) (func() error, string, error) {
	if addr == "" {
		return nil, "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pprof listener: %w", err)
	}
	go http.Serve(ln, nil) // DefaultServeMux carries the pprof handlers
	return ln.Close, ln.Addr().String(), nil
}

// ServeDebug is ServePProf plus telemetry: the bound listener serves the
// pprof handlers alongside the obs registry's Prometheus-text /metrics and
// JSON /debug/vars, so one debug port answers both "where is the time
// going?" and "how degraded are we right now?".
func ServeDebug(addr string, reg *obs.Registry) (func() error, string, error) {
	if addr == "" {
		return nil, "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.Handle("/debug/vars", reg.VarsHandler())
	mux.Handle("/", http.DefaultServeMux) // the pprof handlers register there
	go http.Serve(ln, mux)
	return ln.Close, ln.Addr().String(), nil
}

// Names returns every flag name registered on fs, for -h coverage tests.
func Names(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}
