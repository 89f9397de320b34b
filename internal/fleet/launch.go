package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"degradable/internal/obs"
)

// LaunchConfig describes a fleet to spawn as real OS processes: K serve
// daemons on ephemeral loopback ports behind one router, each a re-exec of
// the current binary in the role RoleEnv names (main, or the test binary's
// TestMain, must call Hijack first thing). The fleet tests use it so the
// router, admission and health paths run across genuine process hops, not
// in-process shortcuts.
type LaunchConfig struct {
	// Daemons is how many cmd/serve processes to spawn (default 2).
	Daemons int
	// DaemonArgs are extra argv entries for each daemon (e.g. -shards 1).
	DaemonArgs []string
	// RouterArgs are extra argv entries for the router (e.g. -quota 7:50).
	RouterArgs []string
}

// listenWait bounds how long awaitListen waits for a member's startup
// lines (a var so tests can shorten it).
var listenWait = 10 * time.Second

// Proc is one spawned fleet member.
type Proc struct {
	cmd     *exec.Cmd
	out     *bufio.Reader
	outPipe *os.File
	// Addr is the member's wire listen address, parsed from its stdout.
	Addr string
	// Debug is the member's debug/metrics address ("" if it has none).
	Debug string
}

// Fleet is a running set of daemon processes behind a router process.
type Fleet struct {
	Daemons []*Proc
	Router  *Proc
	// RouterAddr is the router's client-facing wire address.
	RouterAddr string
}

// startDaemons spawns count serve daemons (re-execs of self) on ephemeral
// loopback ports and waits for each to report its address.
func startDaemons(ctx context.Context, self string, count int, extraArgs []string) ([]*Proc, error) {
	var procs []*Proc
	ok := false
	defer func() {
		if !ok {
			for _, p := range procs {
				p.kill()
			}
		}
	}()
	for i := 0; i < count; i++ {
		argv := append([]string{self, "-addr", "127.0.0.1:0"}, extraArgs...)
		p, err := spawnProc(ctx, argv, "daemon")
		if err != nil {
			return nil, fmt.Errorf("fleet: daemon %d: %w", i, err)
		}
		procs = append(procs, p)
		if err := p.awaitListen(); err != nil {
			return nil, fmt.Errorf("fleet: daemon %d: %w", i, err)
		}
	}
	ok = true
	return procs, nil
}

// Launch spawns cfg.Daemons serve processes on ephemeral ports, waits for
// each to report its address, then spawns the router pointed at all of
// them with a debug listener for scraping. ctx bounds the spawn sequence
// and, via exec.CommandContext, the processes' lifetime.
func Launch(ctx context.Context, cfg LaunchConfig) (*Fleet, error) {
	if cfg.Daemons <= 0 {
		cfg.Daemons = 2
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fl := &Fleet{}
	ok := false
	defer func() {
		if !ok {
			fl.kill()
		}
	}()

	daemons, err := startDaemons(ctx, self, cfg.Daemons, cfg.DaemonArgs)
	if err != nil {
		return nil, err
	}
	fl.Daemons = daemons

	backends := make([]string, len(fl.Daemons))
	for i, p := range fl.Daemons {
		backends[i] = p.Addr
	}
	argv := append([]string{self,
		"-addr", "127.0.0.1:0",
		"-backends", strings.Join(backends, ","),
		"-pprof", "127.0.0.1:0",
	}, cfg.RouterArgs...)
	p, err := spawnProc(ctx, argv, "router")
	if err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	fl.Router = p
	if err := p.awaitListen(); err != nil {
		return nil, fmt.Errorf("fleet: router: %w", err)
	}
	fl.RouterAddr = p.Addr
	ok = true
	return fl, nil
}

// ScrapeRouter fetches the router's /debug/vars JSON snapshot — the
// router→backend latency histogram, health gauges, and shed counters.
func (fl *Fleet) ScrapeRouter() (obs.Snapshot, error) {
	var snap obs.Snapshot
	if fl.Router == nil || fl.Router.Debug == "" {
		return snap, fmt.Errorf("fleet: router has no debug listener")
	}
	resp, err := http.Get("http://" + fl.Router.Debug + "/debug/vars")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("fleet: scrape: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// Stop terminates the fleet gracefully: SIGTERM to the router first and
// wait for it to exit (it drains in-flight calls, which needs the daemons
// still up), then SIGTERM and wait on the daemons.
func (fl *Fleet) Stop() error {
	var firstErr error
	stop := func(p *Proc) {
		if p == nil {
			return
		}
		if err := p.Terminate(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	stop(fl.Router)
	for _, p := range fl.Daemons {
		stop(p)
	}
	return firstErr
}

// Terminate stops one member gracefully (SIGTERM, wait).
func (p *Proc) Terminate() error {
	if p.cmd.Process != nil {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	err := p.cmd.Wait()
	p.outPipe.Close()
	return err
}

// kill force-stops everything (spawn-failure cleanup).
func (fl *Fleet) kill() {
	procs := append([]*Proc{fl.Router}, fl.Daemons...)
	for _, p := range procs {
		if p != nil {
			p.kill()
		}
	}
}

// kill force-stops one member.
func (p *Proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.cmd.Wait()
	p.outPipe.Close()
}

// spawnProc starts one member process. role, when non-empty, is exported
// as RoleEnv so a re-exec'd binary diverts into Hijack.
func spawnProc(ctx context.Context, argv []string, role string) (*Proc, error) {
	outR, outW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdout = outW
	cmd.Stderr = os.Stderr
	cmd.Env = os.Environ()
	if role != "" {
		cmd.Env = append(cmd.Env, RoleEnv+"="+role)
	}
	if err := cmd.Start(); err != nil {
		outR.Close()
		outW.Close()
		return nil, err
	}
	outW.Close()
	return &Proc{cmd: cmd, out: bufio.NewReader(outR), outPipe: outR}, nil
}

// awaitListen scans the member's stdout for its startup lines: an optional
// "debug on http://ADDR/" line, then the "listening on ADDR (...)" line.
// Both cmd/serve and cmd/router print this contract. The deadline is set
// on the pipe itself, so a spawned process that prints nothing and stays
// alive fails the launch after 10s instead of blocking the reader forever.
func (p *Proc) awaitListen() error {
	wait := listenWait
	p.outPipe.SetReadDeadline(time.Now().Add(wait))
	defer p.outPipe.SetReadDeadline(time.Time{})
	for {
		line, err := p.out.ReadString('\n')
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("no listening line within %v", wait)
			}
			return fmt.Errorf("startup output ended: %w (last %q)", err, line)
		}
		if _, after, found := strings.Cut(line, "debug on http://"); found {
			if i := strings.IndexByte(after, '/'); i > 0 {
				p.Debug = after[:i]
			}
			continue
		}
		if _, after, found := strings.Cut(line, "listening on "); found {
			if i := strings.IndexByte(after, ' '); i > 0 {
				p.Addr = after[:i]
			} else {
				p.Addr = strings.TrimSpace(after)
			}
			return nil
		}
	}
}

// DrainOutput keeps reading a member's stdout in the background so the
// process never blocks on a full pipe; call after awaitListen when the
// launcher no longer cares about the member's output.
func (p *Proc) DrainOutput() {
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := p.outPipe.Read(buf); err != nil {
				return
			}
		}
	}()
}
