package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/protocol/relay"
	"degradable/internal/round"
	"degradable/internal/spec"
	"degradable/internal/types"
)

// degradeFlags runs one m/u-degradable agreement instance and prints the
// per-node decisions and the spec verdict. Faults use chaos.ParseFaults'
// node:kind[:value][:seed] grammar; node 0 is the sender. -trace prints every
// delivered message and -explain the EIG resolution of a receiver (or all),
// both from the one execution the verdict judges.
func degradeFlags(fs *flag.FlagSet) func(io.Writer) error {
	var (
		n       = fs.Int("n", 5, "number of nodes (sender included)")
		m       = fs.Int("m", 1, "classic fault bound m")
		u       = fs.Int("u", 2, "degraded fault bound u")
		value   = fs.Int64("value", 42, "sender's value")
		faults  = fs.String("faults", "", "faults as node:kind[:value][:seed], comma separated")
		trace   = fs.Bool("trace", false, "print every delivered protocol message")
		explain = fs.String("explain", "", "node ID whose EIG resolution to print, or 'all'")
	)
	return func(out io.Writer) error {
		p, v := core.Params{N: *n, M: *m, U: *u}, types.Value(*value)
		flts, err := chaos.ParseFaults(*faults)
		if err != nil {
			return err
		}
		strategies, err := adversary.Strategies(p.N, flts)
		if err != nil {
			return err
		}
		faulty, _ := adversary.CheckFaults(p.N, flts) // Strategies checked it
		nodes, err := p.Nodes(v)
		if err != nil {
			return err
		}
		explainID := -1 // -1: every receiver (-explain all)
		if *explain != "" && *explain != "all" {
			if explainID, err = strconv.Atoi(*explain); err != nil || explainID < 0 || explainID >= p.N {
				return fmt.Errorf("bad -explain %q: want 'all' or a node ID in [0,%d)", *explain, p.N)
			}
			if types.NodeID(explainID) == p.Sender {
				return fmt.Errorf("bad -explain %d: the sender resolves nothing", explainID)
			}
			if faulty.Contains(types.NodeID(explainID)) {
				return fmt.Errorf("bad -explain %d: node %d is faulty", explainID, explainID)
			}
		}
		if err := adversary.Wrap(nodes, p.N, p.Depth(), p.Sender, v, strategies); err != nil {
			return err
		}
		cfg := round.Config{Rounds: p.Depth()}
		if *trace {
			fmt.Fprintln(out, "message trace:")
			cfg.Trace = func(m types.Message) {
				fmt.Fprintf(out, "  round %d  %d → %d  claim [%s] = %s\n",
					m.Round, int(m.From), int(m.To), m.Path, m.Value)
			}
		}
		res, err := round.Run(nodes, cfg, round.Reference{})
		if err != nil {
			return err
		}
		verdict := spec.Check(spec.Execution{
			M: p.M, U: p.U, Sender: p.Sender, SenderValue: v,
			Faulty: faulty, Decisions: res.Decisions,
		})
		if *trace {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "m/u-degradable agreement: N=%d m=%d u=%d sender=0 value=%d faults=%d\n",
			p.N, p.M, p.U, v, len(flts))
		fmt.Fprintf(out, "rounds=%d messages=%d\n\n", len(res.PerRound), res.Messages)
		for i := 0; i < p.N; i++ {
			id := types.NodeID(i)
			role := "receiver"
			if id == p.Sender {
				role = "sender"
			}
			mark := ""
			if faulty.Contains(id) {
				mark = " (FAULTY)"
			}
			fmt.Fprintf(out, "node %d [%s]%s decided %s\n", i, role, mark, res.Decisions[id])
		}
		fmt.Fprintf(out, "\ncondition %s: ", verdict.Condition)
		if verdict.OK {
			fmt.Fprintln(out, "SATISFIED")
		} else {
			fmt.Fprintf(out, "VIOLATED (%s)\n", verdict.Reason)
		}
		fmt.Fprintf(out, "graceful degradation (≥ m+1 fault-free on one value): %v\n", verdict.Graceful)
		if *explain == "" {
			return nil
		}

		// The trees the run just filled, rendered with the paper's per-level
		// VOTE thresholds. Wrap replaced every faulty node, so each *relay.Node
		// left is fault-free; the sender has nothing to resolve.
		label := func(nSub int) string { return fmt.Sprintf("VOTE(%d,%d)", nSub-1-p.M, nSub-1) }
		for i, nd := range nodes {
			rn, ok := nd.(*relay.Node)
			if id := types.NodeID(i); ok && id != p.Sender && (explainID < 0 || i == explainID) {
				fmt.Fprintln(out)
				fmt.Fprint(out, rn.Tree().ExplainResolve(id, p.Rule(), label))
			}
		}
		return nil
	}
}
