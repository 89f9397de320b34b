// Budgets: the three classical node budgets, side by side, via the public
// API.
//
//	go run ./examples/budgets
//
// Byzantine agreement comes in three price brackets. With unforgeable
// signatures, Lamport's SM(m) needs only m+2 nodes. Without them, OM(m)
// needs 3m+1. The paper's degradable trade spends 2m+u+1 nodes to buy a
// guarantee neither baseline offers: a *degraded but safe* regime past m
// faults. This program runs each protocol at its own minimum size and under
// the same kinds of attack, via degradable.Agree / AgreeOM / AgreeSM.
package main

import (
	"fmt"
	"log"
	"slices"

	degradable "degradable"
)

func main() {
	const value = 42

	fmt.Println("m = 1 fault to mask; attack: one lying receiver (node 2 lies '99').")
	fmt.Println()

	// SM(1): 3 nodes suffice with signatures.
	sm, err := degradable.AgreeSM(3, 1, value,
		degradable.Fault{Node: 2, Kind: degradable.FaultLie, Value: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SM(1), N=3 (signed):      node 1 decided %s, agreement ok=%v\n",
		sm.Decisions[1], sm.OK)

	// OM(1): 4 nodes without signatures.
	om, err := degradable.AgreeOM(4, 1, value,
		degradable.Fault{Node: 2, Kind: degradable.FaultLie, Value: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OM(1), N=4 (oral):        node 1 decided %s, %s ok=%v\n",
		om.Decisions[1], om.Condition, om.OK)

	// Degradable 1/2: 5 nodes, but look what happens at f=2.
	deg, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, value,
		degradable.Fault{Node: 2, Kind: degradable.FaultLie, Value: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BYZ(1/2), N=5 (degradable): node 1 decided %s, %s ok=%v\n",
		deg.Decisions[1], deg.Condition, deg.OK)

	fmt.Println()
	fmt.Println("Now TWO faults — beyond every baseline's promise:")
	two := []degradable.Fault{
		{Node: 2, Kind: degradable.FaultLie, Value: 99},
		{Node: 3, Kind: degradable.FaultTwoFaced, Value: 99},
	}
	deg2, err := degradable.Agree(degradable.Config{N: 5, M: 1, U: 2}, value, two...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BYZ(1/2) at f=2: condition %s ok=%v graceful=%v — receivers hold ", deg2.Condition, deg2.OK, deg2.Graceful)
	held := make([]degradable.Value, 0, len(deg2.Classes))
	for v := range deg2.Classes {
		held = append(held, v)
	}
	slices.Sort(held)
	for _, v := range held {
		fmt.Printf("%s×%d ", v, deg2.Classes[v])
	}
	fmt.Println()
	fmt.Println()
	fmt.Println("The signed and oral baselines promise nothing at f=2 on these sizes;")
	fmt.Println("the degradable protocol still pins every fault-free receiver to the")
	fmt.Println("sender's value or the safe default — the trade the paper proposes.")
}
