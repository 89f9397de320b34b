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
	"fmt"
	"os"

	"degradable/internal/fleet"
)

func main() {
	if err := fleet.ServeMain(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
