// Command degradable is the repository's one binary. It reproduces the
// paper's reportable artifacts: every table and figure (experiments; E1 is
// the §2 minimum-nodes table, E4 Figure 1), single BYZ(m,m) runs with their
// spec verdict and EIG resolution (degrade), Theorem 3's connectivity bound
// on a given topology (netinfo), and a long-horizon mission under transient
// faults (longhaul). It runs seeded fault-injection campaigns judged against
// D.1–D.4 (chaos), the protocol as one OS process per node over loopback
// TCP with §4 assumption (b) as real per-round deadlines (cluster, and node
// for one such process by hand), and the agreement service with its fleet
// front (serve, router).
//
// Usage:
//
//	degradable experiments [-markdown] [-seed 42] [-only E3] [-list]
//	degradable degrade -n 5 -m 1 -u 2 -value 42 -faults 3:lie:99,4:silent [-trace] [-explain 1|all]
//	degradable netinfo -graph harary:4:9
//	degradable longhaul -n 5 -m 1 -u 2 -steps 1000 -fail 0.05 -repair 0.5
//	degradable chaos -seed 42 -runs 1000
//	degradable cluster -n 7 -m 1 -u 2 -faults 2:twofaced:999,4:silent
//	degradable node -listen 127.0.0.1:0
//	degradable serve -addr :7001 -shards 2
//	degradable router -addr :7100 -backends 127.0.0.1:7001,127.0.0.1:7002
//
// Each subcommand's -h lists its flags. Exit status is 0 for a run or -h,
// 1 for a failure, and 2 for usage: with no subcommand, or an unknown one,
// the command prints the list. The Figure-1 mission program is
// examples/flybywire.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"degradable/internal/cluster"
	"degradable/internal/fleet"
)

// command is one subcommand: flags registers its flags on a fresh FlagSet
// and returns the action that runs once they are parsed.
type command struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func(out io.Writer) error
}

var commands = []command{
	{"experiments", "regenerate every table and figure of the paper with its machine-checked claims", experimentsFlags},
	{"degrade", "run one m/u-degradable agreement instance and judge it against D.1–D.4", degradeFlags},
	{"netinfo", "topology analysis: connectivity, supported (m,u) pairs (Theorem 3), disjoint paths", netinfoFlags},
	{"longhaul", "a long mission of agreement instances under transient faults and repairs", longhaulFlags},
	{"chaos", "seeded fault-injection campaigns, each scenario classified against the spec", chaosFlags},
	{"cluster", "one agreement instance or campaign with one OS process per node over TCP", clusterFlags},
	{"node", "one cluster node over stdio, for running a node by hand", nodeFlags},
	{"serve", "the sharded agreement service behind a wire listener", serveFlags},
	{"router", "the fleet's router: consistent-hash placement over serve backends", routerFlags},
}

func serveFlags(fs *flag.FlagSet) func(io.Writer) error  { return fleet.ServeFlags(fs, nil) }
func routerFlags(fs *flag.FlagSet) func(io.Writer) error { return fleet.RouterFlags(fs, nil) }

func main() {
	// The cluster launcher spawns node processes by re-executing this
	// binary; those children divert here and never return.
	cluster.Hijack()
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand args[0] names and returns the exit status.
func dispatch(args []string, out, errOut io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			err := c.run(args[1:], out)
			if err == nil || errors.Is(err, flag.ErrHelp) {
				return 0
			}
			fmt.Fprintf(errOut, "degradable %s: %v\n", c.name, err)
			return 1
		}
		fmt.Fprintf(errOut, "degradable: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(errOut, "usage: degradable <subcommand> [flags]; subcommands:")
	for _, c := range commands {
		fmt.Fprintf(errOut, "  %-12s %s\n", c.name, c.summary)
	}
	return 2
}

// run parses args over the subcommand's own FlagSet, then runs it.
func (c command) run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(out)
	act := c.flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return act(out)
}
