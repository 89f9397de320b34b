// Command serve runs the agreement-as-a-service TCP daemon: a sharded
// concurrent runtime executing m/u-degradable agreement instances on
// demand, with bounded admission queues, shape batching, and continuous
// spec sampling.
//
// Usage:
//
//	serve -addr :7001 -shards 2 -queue 1024 -batch 64
//
// The daemon speaks the length-prefixed binary protocol of internal/wire
// (degradable.Dial is a ready-made client). SIGTERM or
// SIGINT triggers a graceful shutdown: the listener closes, in-flight
// requests are answered and flushed, the shard queues drain, and the final
// service counters are printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	_ "net/http/pprof" // registers the /debug/pprof handlers, served only when -pprof is set
	"os"
	"os/signal"
	"syscall"
	"time"

	"degradable/internal/cliflags"
	"degradable/internal/obs"
	"degradable/internal/service"
	"degradable/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run is the testable entry point. ready, when non-nil, receives the bound
// address once the listener is up.
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(out)
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
	if err := fs.Parse(args); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(4096)
	}
	svc := service.New(service.Config{
		Shards: *shards, QueueDepth: *queue, Batch: *batch, SpecSample: *specSample,
		Sink: sinkOrNil(tracer),
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
			if terr := dumpTrace(*tracePath, tracer); terr != nil && err == nil {
				err = terr
			}
		}
		return err
	case err := <-serveErr:
		return err
	}
}

// sinkOrNil keeps a nil tracer a nil Sink (a typed-nil interface would
// defeat the service's sink checks).
func sinkOrNil(t *obs.Tracer) obs.Sink {
	if t == nil {
		return nil
	}
	return t
}

// dumpTrace writes the event ring as JSONL.
func dumpTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, t.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
