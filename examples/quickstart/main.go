// Quickstart: simulate one memory-intensive workload on baseline DDR4 and
// on CLR-DRAM with every row in high-performance mode, and compare
// performance and DRAM energy — the paper's headline experiment in ~30
// lines of API use.
package main

import (
	"context"
	"fmt"
	"log"

	"clrdram"
)

func main() {
	// Pick a workload from the paper's evaluation set.
	mcf, ok := clrdram.WorkloadByName("429.mcf-like")
	if !ok {
		log.Fatal("workload not found")
	}

	opts := clrdram.DefaultOptions()
	opts.TargetInstructions = 200_000 // scale to taste; paper uses 200 M

	base, err := runSingle(mcf, clrdram.Baseline(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := runSingle(mcf, clrdram.CLR(1.0), opts)
	if err != nil {
		log.Fatal(err)
	}

	bIPC, fIPC := base.PerCore[0].IPC(), fast.PerCore[0].IPC()
	fmt.Printf("workload: %s (MPKI %.1f)\n", mcf.Name, base.PerCore[0].MPKI())
	fmt.Printf("baseline DDR4:        IPC %.3f, DRAM energy %.1f µJ\n", bIPC, base.Energy.Total()/1e6)
	fmt.Printf("CLR-DRAM (100%% HP):   IPC %.3f, DRAM energy %.1f µJ\n", fIPC, fast.Energy.Total()/1e6)
	fmt.Printf("speedup: %.1f%%   energy saving: %.1f%%\n",
		(fIPC/bIPC-1)*100, (1-fast.Energy.Total()/base.Energy.Total())*100)

	// The cost: half the storage capacity and a little silicon.
	fmt.Printf("capacity factor at 100%% HP rows: %.0f%%\n", clrdram.CapacityFactor(1.0)*100)
	_, _, area := clrdram.DefaultAreaModel().Overhead()
	fmt.Printf("chip area overhead: %.1f%%\n", area*100)
}

// runSingle drives one single-core simulation through the unified Run API.
func runSingle(p clrdram.Profile, cfg clrdram.Config, opts clrdram.Options) (clrdram.Result, error) {
	out, err := clrdram.Run(context.Background(), clrdram.SingleSpec(p, cfg), opts)
	if err != nil {
		return clrdram.Result{}, err
	}
	return *out.Single, nil
}
