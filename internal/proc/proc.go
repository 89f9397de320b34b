// Package proc is the repo's one child-process launcher. A child is a
// re-exec of the current binary (or any argv) told which role to play by
// one environment variable; the parent talks to it over its stdio: JSON or
// text lines out of the child's stdout, JSON lines into its stdin. The
// cluster driver spawns its node processes with it, and the fleet test its
// serve and router processes.
package proc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// roleEnv names the role a spawned child plays. Binaries that re-exec
// themselves switch on Role first thing in main (test binaries in
// TestMain).
const roleEnv = "DEGRADABLE_ROLE"

// StartupWait bounds how long a launcher waits for a child's first line.
const StartupWait = 10 * time.Second

// Role returns the role this process was spawned in ("" when it was not).
func Role() string { return os.Getenv(roleEnv) }

// Proc is one spawned child and its stdio.
type Proc struct {
	cmd     *exec.Cmd
	in      *os.File
	out     *bufio.Reader
	outPipe *os.File

	waitOnce sync.Once
	waitErr  error
}

// Spawn starts argv with its stdin and stdout piped to the parent and its
// stderr inherited, in the given role. ctx bounds the child's lifetime.
func Spawn(ctx context.Context, argv []string, role string) (*Proc, error) {
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdin = inR
	cmd.Stdout = outW
	cmd.Stderr = os.Stderr
	// Set even when empty, so a child never inherits its parent's role.
	cmd.Env = append(os.Environ(), roleEnv+"="+role)
	err = cmd.Start()
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, err
	}
	return &Proc{cmd: cmd, in: inW, out: bufio.NewReader(outR), outPipe: outR}, nil
}

// ReadLine returns the child's next stdout line. wait > 0 bounds the read,
// so a child that stays alive and silent fails the caller at the deadline.
func (p *Proc) ReadLine(wait time.Duration) ([]byte, error) {
	if wait > 0 {
		if err := p.outPipe.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return nil, err
		}
		defer p.outPipe.SetReadDeadline(time.Time{})
	}
	line, err := p.out.ReadBytes('\n')
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return nil, fmt.Errorf("no output line within %v", wait)
	}
	if len(line) == 0 {
		return nil, err
	}
	return line, nil
}

// Send writes v to the child's stdin as one JSON line.
func (p *Proc) Send(v any) error { return WriteJSON(p.in, v) }

// WriteJSON encodes v as one newline-terminated JSON line.
func WriteJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Wait closes the child's stdin, waits for it to exit and closes its
// stdout. It is safe to call more than once, and concurrently with Kill;
// every call returns the first one's exit status.
func (p *Proc) Wait() error {
	p.waitOnce.Do(func() {
		p.in.Close()
		p.waitErr = p.cmd.Wait()
		p.outPipe.Close()
	})
	return p.waitErr
}

// Terminate stops the child gracefully: SIGTERM, then Wait. A child that
// has already exited only fails the signal; Wait still reports its status.
func (p *Proc) Terminate() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	return p.Wait()
}

// Kill force-stops the child and reaps it; a no-op after it has exited.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill()
	p.Wait()
}

// Drain keeps reading the child's stdout in the background, so a child
// whose output nobody wants never blocks on a full pipe.
func (p *Proc) Drain() {
	go io.Copy(io.Discard, p.out)
}
