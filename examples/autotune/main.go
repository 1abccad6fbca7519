// Autotune shows the Advisor — this library's implementation of the
// capacity-vs-latency decision the paper leaves to system software (§6.1):
// profile a workload briefly on the baseline, feed the measured MPKI,
// footprint and page-access concentration to the advisor, and run the
// recommended CLR-DRAM configuration. The result is compared against the
// naive extremes (everything max-capacity / everything high-performance).
package main

import (
	"context"
	"fmt"
	"log"

	"clrdram"
)

func main() {
	opts := clrdram.DefaultOptions()
	opts.TargetInstructions = 120_000

	// A 16 GiB DIMM and a selection of workloads with different characters.
	adv := clrdram.NewAdvisor(16 << 30)

	for _, name := range []string{
		"429.mcf-like",    // intensive, near-uniform access
		"450.soplex-like", // intensive, heavily skewed access
		"456.hmmer-like",  // cache-resident
	} {
		w, ok := clrdram.WorkloadByName(name)
		if !ok {
			log.Fatalf("workload %s not found", name)
		}

		// Step 1 — profile on the baseline.
		base, err := runSingle(w, clrdram.Baseline(), opts)
		if err != nil {
			log.Fatal(err)
		}
		demand := clrdram.Demand{
			FootprintBytes: w.FootprintBytes(),
			MPKI:           base.PerCore[0].MPKI(),
			Coverage:       w.CoverageOfTopFraction,
		}

		// Step 2 — ask the advisor.
		cfg := adv.Recommend(demand)
		cfg.REFWms = adv.RecommendREFW(demand, nil)

		// Step 3 — run the recommendation and the naive extremes.
		rec, err := runSingle(w, cfg, opts)
		if err != nil {
			log.Fatal(err)
		}
		full, err := runSingle(w, clrdram.CLR(1.0), opts)
		if err != nil {
			log.Fatal(err)
		}

		speedup := func(r clrdram.Result) float64 {
			return r.PerCore[0].IPC() / base.PerCore[0].IPC()
		}
		fmt.Printf("%-20s MPKI %5.1f  advisor: %s\n", name, demand.MPKI, cfg)
		fmt.Printf("  speedup: advisor %.3fx vs all-HP %.3fx;"+
			" capacity kept: advisor %.0f%% vs all-HP 50%%\n",
			speedup(rec), speedup(full),
			clrdram.CapacityFactor(cfg.HPFraction)*100)
	}
	fmt.Println("\nThe advisor matches all-HP performance where it matters while")
	fmt.Println("keeping capacity when the workload cannot use low-latency rows.")
}

// runSingle drives one single-core simulation through the unified Run API.
func runSingle(p clrdram.Profile, cfg clrdram.Config, opts clrdram.Options) (clrdram.Result, error) {
	out, err := clrdram.Run(context.Background(), clrdram.SingleSpec(p, cfg), opts)
	if err != nil {
		return clrdram.Result{}, err
	}
	return *out.Single, nil
}
