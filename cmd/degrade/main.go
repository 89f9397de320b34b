// Command degrade runs one m/u-degradable agreement instance and prints the
// per-node decisions and the spec verdict.
//
// Usage:
//
//	degrade -n 5 -m 1 -u 2 -value 42 -faults 3:lie:99,4:silent
//
// Fault syntax: comma-separated node:kind[:value][:seed] entries, where kind
// is one of silent, crash, lie, twofaced, random; the seed makes a random
// fault's behaviour reproducible. Node 0 is the sender.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	degradable "degradable"
	"degradable/internal/adversary"
	"degradable/internal/core"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "degrade:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("degrade", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 5, "number of nodes (sender included)")
		m       = fs.Int("m", 1, "classic fault bound m")
		u       = fs.Int("u", 2, "degraded fault bound u")
		value   = fs.Int64("value", 42, "sender's value")
		faults  = fs.String("faults", "", "faults as node:kind[:value][:seed], comma separated")
		trace   = fs.Bool("trace", false, "print every delivered protocol message")
		explain = fs.String("explain", "", "node ID whose EIG resolution to print, or 'all'")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	flts, err := parseFaults(*faults)
	if err != nil {
		return err
	}
	cfg := degradable.Config{N: *n, M: *m, U: *u}
	strategies := make(map[degradable.NodeID]degradable.Strategy, len(flts))
	for _, f := range flts {
		if _, dup := strategies[f.Node]; dup {
			return fmt.Errorf("node %d armed twice", int(f.Node))
		}
		s, err := f.Strategy(cfg.N)
		if err != nil {
			return err
		}
		strategies[f.Node] = s
	}
	var observer func(degradable.Message)
	if *trace {
		fmt.Fprintln(out, "message trace:")
		observer = func(m degradable.Message) {
			fmt.Fprintf(out, "  round %d  %d → %d  claim [%s] = %s\n",
				m.Round, int(m.From), int(m.To), m.Path, m.Value)
		}
	}
	res, err := degradable.AgreeObserved(cfg, degradable.Value(*value), strategies, observer)
	if err != nil {
		return err
	}
	if *trace {
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "m/u-degradable agreement: N=%d m=%d u=%d sender=0 value=%d faults=%d\n",
		*n, *m, *u, *value, len(flts))
	fmt.Fprintf(out, "rounds=%d messages=%d\n\n", res.Rounds, res.Messages)
	faultSet := make(map[degradable.NodeID]bool, len(flts))
	for _, f := range flts {
		faultSet[f.Node] = true
	}
	for i := 0; i < *n; i++ {
		id := degradable.NodeID(i)
		role := "receiver"
		if i == 0 {
			role = "sender"
		}
		mark := ""
		if faultSet[id] {
			mark = " (FAULTY)"
		}
		fmt.Fprintf(out, "node %d [%s]%s decided %s\n", i, role, mark, res.Decisions[id])
	}
	fmt.Fprintf(out, "\ncondition %s: ", res.Condition)
	if res.OK {
		fmt.Fprintln(out, "SATISFIED")
	} else {
		fmt.Fprintf(out, "VIOLATED (%s)\n", res.Reason)
	}
	fmt.Fprintf(out, "graceful degradation (≥ m+1 fault-free on one value): %v\n", res.Graceful)
	if *explain != "" {
		if err := explainRun(out, cfg, degradable.Value(*value), strategies, *explain); err != nil {
			return err
		}
	}
	return nil
}

func parseFaults(s string) ([]degradable.Fault, error) {
	if s == "" {
		return nil, nil
	}
	var out []degradable.Fault
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("bad fault %q: want node:kind[:value][:seed]", entry)
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad fault node %q: %v", parts[0], err)
		}
		f := degradable.Fault{Node: degradable.NodeID(node)}
		switch parts[1] {
		case "silent":
			f.Kind = degradable.FaultSilent
		case "crash":
			f.Kind = degradable.FaultCrash
		case "lie":
			f.Kind = degradable.FaultLie
		case "twofaced":
			f.Kind = degradable.FaultTwoFaced
		case "random":
			f.Kind = degradable.FaultRandom
		default:
			return nil, fmt.Errorf("unknown fault kind %q", parts[1])
		}
		if len(parts) > 2 {
			v, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault value %q: %v", parts[2], err)
			}
			f.Value = degradable.Value(v)
		}
		if len(parts) > 3 {
			seed, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault seed %q: %v", parts[3], err)
			}
			f.Seed = seed
		}
		out = append(out, f)
	}
	return out, nil
}

// explainRun re-executes the instance keeping node references so the EIG
// resolution of the requested receiver(s) can be rendered with the paper's
// per-level VOTE thresholds.
func explainRun(out io.Writer, cfg degradable.Config, value degradable.Value,
	strategies map[degradable.NodeID]degradable.Strategy, which string) error {
	p := core.Params{N: cfg.N, M: cfg.M, U: cfg.U, Sender: cfg.Sender}
	nodes, err := p.Nodes(value)
	if err != nil {
		return err
	}
	honest := make(map[degradable.NodeID]*relay.Node, len(nodes))
	for i, nd := range nodes {
		if rn, ok := nd.(*relay.Node); ok {
			honest[degradable.NodeID(i)] = rn
		}
	}
	if err := adversary.Wrap(nodes, p.N, p.Depth(), p.Sender, value, strategies); err != nil {
		return err
	}
	for id := range strategies {
		delete(honest, id)
	}
	if _, err := round.Run(nodes, round.Config{Rounds: p.Depth()}, round.Reference{}); err != nil {
		return err
	}
	label := func(nSub int) string { return fmt.Sprintf("VOTE(%d,%d)", nSub-1-p.M, nSub-1) }
	var ids []degradable.NodeID
	if which == "all" {
		for i := 0; i < p.N; i++ {
			ids = append(ids, degradable.NodeID(i))
		}
	} else {
		v, err := strconv.Atoi(which)
		if err != nil {
			return fmt.Errorf("bad -explain %q: %v", which, err)
		}
		ids = append(ids, degradable.NodeID(v))
	}
	for _, id := range ids {
		rn, ok := honest[id]
		if !ok || id == p.Sender {
			continue // faulty nodes and the sender have nothing to explain
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, rn.Tree().ExplainResolve(id, p.Rule(), label))
	}
	return nil
}
