package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	_ "net/http/pprof" // registers the /debug/pprof handlers, served only when -pprof is set

	"degradable/internal/cliflags"
	"degradable/internal/cluster"
)

// nodeFlags runs one node of a distributed agreement cluster: it reads its
// node configuration as a JSON line on stdin, listens for peers, prints
// its listen address as a JSON line on stdout, reads the roster line, runs
// the protocol over TCP, and prints its report line.
//
//	degradable node -listen 127.0.0.1:0
//
// The stdio protocol is what the cluster launcher (degradable cluster or
// degradable.RunCluster) speaks; the launcher spawns its nodes by
// re-executing itself, and this subcommand exists for running nodes by
// hand — on separate machines, under strace, or behind a debugger.
func nodeFlags(fs *flag.FlagSet) func(io.Writer) error {
	var (
		listen    = cliflags.Addr(fs, "listen", "127.0.0.1:0")
		pprofAddr = cliflags.PProf(fs)
	)
	return func(out io.Writer) error {
		closePProf, pprofBound, err := cliflags.ServePProf(*pprofAddr)
		if err != nil {
			return err
		}
		if closePProf != nil {
			defer closePProf()
			fmt.Fprintf(os.Stderr, "node: pprof on http://%s/debug/pprof/\n", pprofBound)
		}
		return cluster.NodeMain(os.Stdin, out, *listen)
	}
}
