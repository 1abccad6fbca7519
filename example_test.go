package clrdram_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"clrdram"
)

// Example is the README quickstart: one memory-intensive workload on the
// DDR4 baseline and on CLR-DRAM with every row in high-performance mode.
// The instruction budget is kept small so the example runs with the test
// suite; the paper simulates 200 M instructions per core.
func Example() {
	mcf, _ := clrdram.WorkloadByName("429.mcf-like")
	opts := clrdram.DefaultOptions()
	opts.TargetInstructions = 50_000

	ctx := context.Background()
	base, err := clrdram.Run(ctx, clrdram.SingleSpec(mcf, clrdram.Baseline()), opts)
	if err != nil {
		log.Fatal(err)
	}
	// All rows in high-performance mode.
	fast, err := clrdram.Run(ctx, clrdram.SingleSpec(mcf, clrdram.CLR(1.0)), opts)
	if err != nil {
		log.Fatal(err)
	}

	b, f := base.Single, fast.Single
	fmt.Printf("speedup: %.1f%%  energy: %.1f%%\n",
		(f.PerCore[0].IPC()/b.PerCore[0].IPC()-1)*100,
		(1-f.Energy.Total()/b.Energy.Total())*100)
	// Output: speedup: 45.7%  energy: 34.1%
}

// ExampleCapacityFactor shows the §6.1 capacity accounting: configuring X%
// of rows as high-performance forfeits X/2% of device capacity.
func ExampleCapacityFactor() {
	for _, frac := range []float64{0, 0.25, 0.5, 1.0} {
		fmt.Printf("%3.0f%% HP rows -> %5.1f%% capacity\n", frac*100, clrdram.CapacityFactor(frac)*100)
	}
	// Output:
	//   0% HP rows -> 100.0% capacity
	//  25% HP rows ->  87.5% capacity
	//  50% HP rows ->  75.0% capacity
	// 100% HP rows ->  50.0% capacity
}

// ExampleDefaultTable prints the paper's Table 1 headline reductions.
func ExampleDefaultTable() {
	tab := clrdram.DefaultTable()
	fmt.Printf("tRCD: %.1f -> %.1f ns\n", tab.Baseline.RCD, tab.HighPerfET.RCD)
	fmt.Printf("tRAS: %.1f -> %.1f ns\n", tab.Baseline.RAS, tab.HighPerfET.RAS)
	fmt.Printf("tRP:  %.1f -> %.1f ns\n", tab.Baseline.RP, tab.HighPerfET.RP)
	fmt.Printf("tWR:  %.1f -> %.1f ns\n", tab.Baseline.WR, tab.HighPerfET.WR)
	// Output:
	// tRCD: 13.8 -> 5.5 ns
	// tRAS: 39.4 -> 14.1 ns
	// tRP:  15.5 -> 8.3 ns
	// tWR:  12.5 -> 8.1 ns
}

// ExampleNewAdvisor demonstrates the §6.1 capacity-vs-latency policy.
func ExampleNewAdvisor() {
	adv := clrdram.NewAdvisor(16 << 30) // 16 GiB device

	// A memory-intensive workload with a small footprint: everything can
	// run in high-performance mode.
	small := clrdram.Demand{FootprintBytes: 2 << 30, MPKI: 25}
	fmt.Println(adv.Recommend(small))

	// A capacity-hungry workload: high-performance rows must be limited so
	// the footprint still fits.
	big := clrdram.Demand{FootprintBytes: 13 << 30, MPKI: 25}
	fmt.Println(adv.Recommend(big))

	// A cache-resident workload: no reason to give up capacity.
	light := clrdram.Demand{FootprintBytes: 1 << 30, MPKI: 0.2}
	fmt.Println(adv.Recommend(light))
	// Output:
	// CLR(hp=100%,tREFW=64ms,w/E.T.)
	// CLR(hp=0%,tREFW=64ms,w/E.T.)
	// CLR(hp=0%,tREFW=64ms,w/E.T.)
}

// ExampleSignalsFor shows the §3.3 isolation-transistor control encoding.
func ExampleSignalsFor() {
	fmt.Printf("max-capacity, any subarray: %+v\n", clrdram.SignalsFor(0, false))
	fmt.Printf("high-perf, even subarray:   %+v\n", clrdram.SignalsFor(0, true))
	fmt.Printf("high-perf, odd subarray:    %+v\n", clrdram.SignalsFor(1, true))
	// Output:
	// max-capacity, any subarray: {ISO1:true ISO2:false}
	// high-perf, even subarray:   {ISO1:false ISO2:false}
	// high-perf, odd subarray:    {ISO1:true ISO2:true}
}

// ExampleNewRowModeMap shows row-granularity reconfiguration bookkeeping.
func ExampleNewRowModeMap() {
	m := clrdram.NewRowModeMap(16, 1024, clrdram.ModeMaxCap)
	m.SetHighPerf(0, 42, true)
	m.SetHighPerf(3, 7, true)
	fmt.Printf("high-performance rows: %d (%.3f%% of device)\n",
		m.HPCount(), m.HPFraction()*100)
	fmt.Printf("controller tracking cost: %d bits\n", m.StorageBits())
	// Output:
	// high-performance rows: 2 (0.012% of device)
	// controller tracking cost: 16384 bits
}

// ExampleSchedulerNames catalogues every selectable implementation of the
// three composable memory-system roles (DESIGN.md §14).
func ExampleSchedulerNames() {
	fmt.Println("schedulers: " + strings.Join(clrdram.SchedulerNames(), " "))
	fmt.Println("row policies: " + strings.Join(clrdram.RowPolicyNames(), " "))
	fmt.Println("standards: " + strings.Join(clrdram.StandardNames(), " "))
	// Output:
	// schedulers: fcfs frfcfs frfcfs-cap
	// row policies: closed hitcount open timeout
	// standards: ddr4-2400 lpddr4-3200
}

// ExampleNewScheduler shows name lookup: the empty string resolves to
// the paper's default, and unknown names fail with a typed error.
func ExampleNewScheduler() {
	def, err := clrdram.NewScheduler("", clrdram.MemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fcfs, err := clrdram.NewScheduler("fcfs", clrdram.MemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	_, err = clrdram.NewScheduler("no-such-scheduler", clrdram.MemConfig{})
	fmt.Println(def.Name(), fcfs.Name(), err != nil)
	// Output: frfcfs-cap fcfs true
}

// Example_composition composes a memory system declaratively: names go into
// Options, and the constructed controller honours them. (No
// Output comment — a full simulation is too slow for the example runner, so
// this example is compile-checked only.)
func Example_composition() {
	p, _ := clrdram.WorkloadByName("429.mcf-like")

	opts := clrdram.DefaultOptions()
	opts.TargetInstructions = 100_000
	opts.Standard = "ddr4-2400"     // device geometry + timing package
	opts.Mem.Scheduler = "frfcfs"   // uncapped FR-FCFS instead of FR-FCFS-Cap
	opts.Mem.RowPolicy = "hitcount" // close rows after MaxRowHits hits
	opts.Mem.MaxRowHits = 8

	out, err := clrdram.Run(context.Background(), clrdram.SingleSpec(p, clrdram.Baseline()), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IPC %.3f\n", out.Single.PerCore[0].IPC())
}
