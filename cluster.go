package degradable

import (
	"context"

	"degradable/internal/cluster"
)

// Cluster-mode vocabulary, re-exported so external callers can run true
// distributed instances (one OS process per node over loopback TCP) through
// the facade.
type (
	// ClusterConfig is one cluster run: the agreement configuration plus
	// fault roles and injector stacks in the chaos vocabulary.
	ClusterConfig = cluster.Config
	// ClusterReport is a cluster run's aggregated outcome: the in-process
	// Result shape plus the spec verdict and round-latency counters.
	ClusterReport = cluster.Report
	// ClusterNodeReport is one node process's share of the run.
	ClusterNodeReport = cluster.NodeReport
)

// RunCluster executes one agreement instance with every node in its own OS
// process, exchanging round-tagged frames over loopback TCP. Each node
// holds back future-round traffic and closes a round at its deadline, so a
// missed deadline is the detectable absence of §4 assumption (b) and the
// protocol substitutes V_d. The calling binary must invoke ClusterHijack
// first thing in main (node processes are spawned by re-executing it), or
// set cfg.Command to a node process's argv, such as {"degradable", "node"}.
// A node that prints no listen line within 10 s fails the run.
func RunCluster(ctx context.Context, cfg ClusterConfig) (*ClusterReport, error) {
	return cluster.Run(ctx, cfg)
}

// ClusterHijack diverts a process spawned in the cluster's node role into
// the node runtime. Binaries that call RunCluster with the default
// (re-exec) command must call it before anything else; it returns
// immediately in the parent process and never returns in a node process.
func ClusterHijack() { cluster.Hijack() }
