// Refresh-tradeoff explores the paper's §8.5 experiment: coupled cells have
// roughly twice the charge of a single cell, so high-performance rows can
// extend the refresh window (tREFW) from 64 ms up to ~194 ms — paying a
// small activation-latency penalty (Figure 11) for a large refresh-energy
// saving (Figure 15).
package main

import (
	"context"
	"fmt"
	"log"

	"clrdram"
)

func main() {
	// Part 1 — the circuit-level trade-off: regenerate the Figure 11 curve
	// from the transient subarray model.
	tab, err := clrdram.BuildTimingTable(clrdram.DefaultCircuitParams(), 20, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 11 — activation latency vs refresh window (circuit model):")
	fmt.Printf("%10s %10s %10s\n", "tREFW(ms)", "tRCD(ns)", "tRAS(ns)")
	for _, pt := range tab.REFWCurve {
		if int(pt.Ms-64)%30 == 0 || pt.Ms == tab.MaxREFWms() {
			fmt.Printf("%10.0f %10.2f %10.2f\n", pt.Ms, pt.RCD, pt.RAS)
		}
	}
	fmt.Printf("sensing fails beyond %.0f ms (paper: ≈204 ms)\n\n", tab.MaxREFWms())

	// Part 2 — the system-level consequence: run a memory-intensive
	// workload at the paper's CLR-64 … CLR-194 settings (all rows HP).
	p, _ := clrdram.WorkloadByName("random_00")
	opts := clrdram.DefaultOptions()
	opts.TargetInstructions = 150_000

	base, err := runSingle(p, clrdram.Baseline(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("System impact on random_00 (normalized to baseline DDR4):")
	fmt.Printf("%10s %10s %12s %14s\n", "setting", "speedup", "DRAM energy", "refresh energy")
	for _, refw := range []float64{64, 114, 124, 184, 194} {
		cfg := clrdram.CLR(1.0)
		cfg.REFWms = refw
		res, err := runSingle(p, cfg, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("CLR-%-6.0f %9.3fx %11.3fx %13.3fx\n", refw,
			res.PerCore[0].IPC()/base.PerCore[0].IPC(),
			res.Energy.Total()/base.Energy.Total(),
			res.Energy.Refresh/base.Energy.Refresh)
	}
	fmt.Println("\nLonger windows trade a little performance for large refresh-energy savings")
	fmt.Println("(paper: CLR-194 cuts refresh energy 87.1% and still outperforms DDR4 by 17.8%).")
}

// runSingle drives one single-core simulation through the unified Run API.
func runSingle(p clrdram.Profile, cfg clrdram.Config, opts clrdram.Options) (clrdram.Result, error) {
	out, err := clrdram.Run(context.Background(), clrdram.SingleSpec(p, cfg), opts)
	if err != nil {
		return clrdram.Result{}, err
	}
	return *out.Single, nil
}
