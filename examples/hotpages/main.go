// Hotpages reproduces the paper's §8.2 page-mapping study on two workloads
// with opposite page-access concentration: a near-uniform one (libquantum-
// like) and a heavily skewed one (soplex-like). It sweeps the fraction of
// rows configured as high-performance and shows how the speedup scaling
// tracks the access-coverage curve — near-linear for uniform access,
// saturating early for skewed access (paper Figure 12, observation 4).
package main

import (
	"context"
	"fmt"
	"log"

	"clrdram"
)

func main() {
	opts := clrdram.DefaultOptions()
	opts.TargetInstructions = 150_000

	for _, name := range []string{"462.libquantum-like", "450.soplex-like"} {
		p, ok := clrdram.WorkloadByName(name)
		if !ok {
			log.Fatalf("workload %s not found", name)
		}
		base, err := runSingle(p, clrdram.Baseline(), opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", name)
		fmt.Printf("%8s %12s %12s %12s\n", "HP rows", "coverage", "speedup", "energy")
		for _, frac := range []float64{0.25, 0.50, 0.75, 1.00} {
			res, err := runSingle(p, clrdram.CLR(frac), opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%7.0f%% %11.1f%% %11.3fx %11.3fx\n",
				frac*100,
				p.CoverageOfTopFraction(frac)*100,
				res.PerCore[0].IPC()/base.PerCore[0].IPC(),
				res.Energy.Total()/base.Energy.Total())
		}
	}
	fmt.Println("\nUniform access → speedup grows with every added HP row;")
	fmt.Println("skewed access → the first 25% of rows capture most of the benefit.")
}

// runSingle drives one single-core simulation through the unified Run API.
func runSingle(p clrdram.Profile, cfg clrdram.Config, opts clrdram.Options) (clrdram.Result, error) {
	out, err := clrdram.Run(context.Background(), clrdram.SingleSpec(p, cfg), opts)
	if err != nil {
		return clrdram.Result{}, err
	}
	return *out.Single, nil
}
