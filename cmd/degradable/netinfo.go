package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"degradable/internal/core"
	"degradable/internal/stats"
	"degradable/internal/topology"
	"degradable/internal/types"
)

// netinfoFlags analyzes a network topology for degradable agreement: its
// vertex connectivity, the (m, u) pairs it supports per Theorem 3
// (connectivity ≥ m+u+1), and a sample disjoint-path routing. The graph is
// one topology.ParseSpec family:params string, as for cmd/chaos -graph.
func netinfoFlags(fs *flag.FlagSet) func(io.Writer) error {
	graph := fs.String("graph", "harary:4:9",
		"graph as family:params ("+strings.Join(topology.Families(), ", ")+"; see topology.Spec)")
	return func(out io.Writer) error {
		sp, err := topology.ParseSpec(*graph)
		if err != nil {
			return err
		}
		g, err := sp.Build()
		if err != nil {
			return err
		}
		kappa := g.VertexConnectivity()
		fmt.Fprintf(out, "graph: %s  nodes=%d  edges=%d  vertex connectivity κ=%d\n\n",
			sp, g.N(), g.Edges(), kappa)

		table := stats.NewTable("m/u-degradable agreement supported by this topology (Theorem 3: κ ≥ m+u+1; Theorem 2: N ≥ 2m+u+1)",
			"m", "u", "needs κ", "needs N", "supported")
		for m := 0; m <= 3; m++ {
			for u := max(m, 1); u <= 6; u++ {
				needK, err := core.MinConnectivity(m, u)
				if err != nil {
					continue
				}
				needN, err := core.MinNodes(m, u)
				if err != nil {
					continue
				}
				ok := kappa >= needK && g.N() >= needN
				if !ok && u > max(m, 1)+2 {
					continue // keep the table short past the feasibility edge
				}
				table.AddRow(m, u, needK, needN, ok)
			}
		}
		fmt.Fprintln(out, table.String())

		// Sample routing between the two most distant node IDs.
		s, t := types.NodeID(0), types.NodeID(g.N()-1)
		paths, err := g.DisjointPaths(s, t, kappa)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "sample disjoint paths %d → %d (%d found):\n", int(s), int(t), len(paths))
		for _, p := range paths {
			fmt.Fprintf(out, "  %v\n", p)
		}
		return nil
	}
}
