package fleet

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only when -pprof is set
	"os/signal"
	"syscall"
	"time"

	"degradable/internal/cliflags"
	"degradable/internal/obs"
	"degradable/internal/service"
	"degradable/internal/wire"
)

// ServeFlags registers the flags of the serve subcommand on fs and returns
// its action: the sharded agreement service behind a wire listener, shut
// down gracefully on SIGTERM or SIGINT. ready, when non-nil, receives the
// bound address once the listener is up.
func ServeFlags(fs *flag.FlagSet, ready chan<- string) func(out io.Writer) error {
	var (
		addr       = cliflags.Addr(fs, "addr", "127.0.0.1:7001")
		shards     = cliflags.Shards(fs)
		queue      = fs.Int("queue", 0, "per-shard admission queue depth (default 1024)")
		batch      = fs.Int("batch", 0, "max requests drained per scheduling round (default 64)")
		specSample = fs.Int("spec-sample", 0, "spec-check every k-th instance per shard (default 8, -1 disables)")
		grace      = fs.Duration("grace", 10*time.Second, "graceful-shutdown bound")
		pprofAddr  = cliflags.PProf(fs)
		tracePath  = cliflags.Trace(fs)
		timeouts   = cliflags.WireTimeouts(fs)
	)
	return func(out io.Writer) error {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		var tracer *obs.Tracer
		var sink obs.Sink
		if *tracePath != "" {
			tracer = obs.NewTracer(4096)
			sink = tracer
		}
		svc := service.New(service.Config{
			Shards: *shards, QueueDepth: *queue, Batch: *batch, SpecSample: *specSample,
			Sink: sink,
		})
		reg := obs.NewRegistry()
		svc.Register(reg)
		// Opt-in debug endpoint on its own listener, so the pprof + telemetry
		// surface never shares a port with the agreement protocol. Bound before
		// the daemon reports ready, failing fast on a bad address.
		closeDebug, debugBound, err := cliflags.ServeDebug(*pprofAddr, reg)
		if err != nil {
			ln.Close()
			return err
		}
		if closeDebug != nil {
			defer closeDebug()
			fmt.Fprintf(out, "serve: debug on http://%s/debug/pprof/ (also /metrics, /debug/vars)\n", debugBound)
		}
		srv := wire.NewServer(ln, svc)
		srv.SetTimeouts(timeouts())
		cfg := svc.Config()
		fmt.Fprintf(out, "serve: listening on %s (shards=%d queue=%d batch=%d spec-sample=%d)\n",
			ln.Addr(), cfg.Shards, cfg.QueueDepth, cfg.Batch, cfg.SpecSample)
		if ready != nil {
			ready <- ln.Addr().String()
		}

		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve() }()
		select {
		case <-ctx.Done():
			stop() // restore default signal handling: a second signal kills
			fmt.Fprintln(out, "serve: shutting down")
			sctx, cancel := context.WithTimeout(context.Background(), *grace)
			defer cancel()
			err := srv.Shutdown(sctx)
			st := svc.Stats()
			fmt.Fprintf(out, "serve: done  accepted=%d rejected=%d completed=%d degraded=%d checked=%d violations=%d\n",
				st.Accepted, st.Rejected, st.Completed, st.Degraded, st.SpecChecked, st.SpecViolations)
			if tracer != nil {
				if terr := obs.WriteJSONLFile(*tracePath, tracer.Events()); terr != nil && err == nil {
					err = terr
				}
			}
			return err
		case err := <-serveErr:
			return err
		}
	}
}

// RouterFlags registers the flags of the router subcommand on fs and returns
// its action: the fleet tier's front, shut down gracefully on SIGTERM or
// SIGINT. ready, when non-nil, receives the bound address once the
// listener is up.
func RouterFlags(fs *flag.FlagSet, ready chan<- string) func(out io.Writer) error {
	var (
		addr     = cliflags.Addr(fs, "addr", "127.0.0.1:7100")
		backends = fs.String("backends", "", "comma-separated backend daemon addresses (required)")
		conns    = fs.Int("conns-per-backend", 0, "pipelined connections pooled per backend (default 2)")
		vnodes   = fs.Int("vnodes", 0, "consistent-hash virtual nodes per backend (default 64)")
		loadF    = fs.Float64("load-factor", 0, "bounded-load ceiling over the mean in-flight load (default 1.25)")
		quota    = cliflags.Quota(fs)
		grace    = fs.Duration("grace", 10*time.Second, "graceful-shutdown bound")
		pprof    = cliflags.PProf(fs)
		tracep   = cliflags.Trace(fs)
	)
	return func(out io.Writer) error {
		if *backends == "" {
			return fmt.Errorf("router: -backends is required")
		}
		var backendList []string
		for _, b := range splitNonEmpty(*backends) {
			backendList = append(backendList, b)
		}
		quotas, err := ParseQuotas(*quota)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		var tracer *obs.Tracer
		var sink obs.Sink
		if *tracep != "" {
			tracer = obs.NewTracer(4096)
			sink = tracer
		}
		rt := NewRouter(ln, Config{
			Backends:        backendList,
			ConnsPerBackend: *conns,
			VNodes:          *vnodes,
			LoadFactor:      *loadF,
			Quotas:          quotas,
			Sink:            sink,
		})
		reg := obs.NewRegistry()
		rt.Register(reg)
		closeDebug, debugBound, err := cliflags.ServeDebug(*pprof, reg)
		if err != nil {
			ln.Close()
			return err
		}
		if closeDebug != nil {
			defer closeDebug()
			fmt.Fprintf(out, "router: debug on http://%s/debug/pprof/ (also /metrics, /debug/vars)\n", debugBound)
		}
		// Give the backend pools a moment to dial before announcing ready, so a
		// client that connects the instant the address is printed doesn't eat a
		// shed_unavailable on a backend that was one dial away. Best-effort: a
		// genuinely down backend must not hold the router hostage (redial keeps
		// trying forever either way).
		healthyDeadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(healthyDeadline) {
			all := true
			for _, up := range rt.healthyByBackend() {
				all = all && up == 1
			}
			if all {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		fmt.Fprintf(out, "router: listening on %s (backends=%d vnodes=%d load-factor=%g conns-per-backend=%d)\n",
			ln.Addr(), len(backendList), rt.cfg.VNodes, rt.cfg.LoadFactor, rt.cfg.ConnsPerBackend)
		if ready != nil {
			ready <- ln.Addr().String()
		}

		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()
		serveErr := make(chan error, 1)
		go func() { serveErr <- rt.Serve() }()
		select {
		case <-ctx.Done():
			stop()
			fmt.Fprintln(out, "router: shutting down")
			sctx, cancel := context.WithTimeout(context.Background(), *grace)
			defer cancel()
			err := rt.Shutdown(sctx)
			snap := rt.Telemetry()
			fmt.Fprintf(out, "router: done  routed=%d answered=%d shed_quota=%d shed_unavailable=%d backend_errors=%d\n",
				snap.Counters["fleet_routed_total"], snap.Counters["fleet_answered_total"],
				snap.Counters["fleet_shed_quota_total"], snap.Counters["fleet_shed_unavailable_total"],
				snap.Counters["fleet_backend_error_total"])
			if tracer != nil {
				if terr := obs.WriteJSONLFile(*tracep, tracer.Events()); terr != nil && err == nil {
					err = terr
				}
			}
			return err
		case err := <-serveErr:
			return err
		}
	}
}

// splitNonEmpty splits a comma list, dropping empty elements.
func splitNonEmpty(s string) []string {
	var parts []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if p := s[start:i]; p != "" {
				parts = append(parts, p)
			}
			start = i + 1
		}
	}
	return parts
}
