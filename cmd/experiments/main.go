// Command experiments regenerates the paper's system-level tables and
// figures (the per-experiment index lives in DESIGN.md §4):
//
//	experiments -table1               Table 1 (paper numbers + circuit model)
//	experiments -fig12                Fig. 12: single-core IPC & DRAM energy
//	experiments -fig13                Fig. 13: multi-core WS & DRAM energy
//	experiments -fig14                Fig. 14: DRAM power (single & multi)
//	experiments -fig15                Fig. 15: refresh-interval sensitivity
//	experiments -area                 §6.2 chip-area overhead
//	experiments -coverage             §8.2 page-access concentration
//	experiments -all                  everything above
//
// Scaling knobs: -instructions (per core), -profiles (cap the single-core
// workload count), -mixes (mixes per L/M/H group). The paper's full scale
// (200 M instructions, 71 workloads, 30 mixes per group) is reachable; all
// sweeps fan out across -workers goroutines (default: one per CPU) with
// bit-identical results at every worker count, and -checkpoint DIR
// persists completed shards so an interrupted run resumes where it left
// off. Defaults favour minutes-scale runs with the same result shapes.
//
// -stats prints a sweep report (figure aggregates plus the engine's
// wall-clock timing and worker utilization) after the run; -stats-out FILE
// writes it as JSON ("-" for stdout). Everything in the report except the
// timing section is bit-identical at any -workers count (see
// OBSERVABILITY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"strings"

	"clrdram/internal/cli"
	"clrdram/internal/core"
	"clrdram/internal/dram"
	"clrdram/internal/engine"
	"clrdram/internal/mem"
	"clrdram/internal/sim"
	"clrdram/internal/spice"
	"clrdram/internal/workload"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "Table 1")
		fig12     = flag.Bool("fig12", false, "Figure 12")
		fig13     = flag.Bool("fig13", false, "Figure 13")
		fig14     = flag.Bool("fig14", false, "Figure 14")
		fig15     = flag.Bool("fig15", false, "Figure 15")
		area      = flag.Bool("area", false, "chip-area overhead (§6.2)")
		coverage  = flag.Bool("coverage", false, "page-access concentration (§8.2)")
		compare   = flag.Bool("compare", false, "§9 related-design comparison (Twin-Cell, MCR, TL-DRAM)")
		retention = flag.Bool("retention", false, "§5.2 extension: RAIDR retention bins composed with CLR-DRAM")
		all       = flag.Bool("all", false, "run everything")
		instrs    = flag.Uint64("instructions", 300_000, "instructions per core")
		warmup    = flag.Int("warmup", 100_000, "warmup records per core")
		nprof     = flag.Int("profiles", 0, "cap on single-core workloads (0 = all 71)")
		mixes     = flag.Int("mixes", 4, "mixes per intensity group (paper: 30)")
		seed      = flag.Int64("seed", 1, "seed")
		mcIters   = flag.Int("iters", 2000, "circuit Monte Carlo iterations for -table1/-compare")
		csvDir    = flag.String("csv", "", "also write figure data as CSV files into this directory")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for experiment shards")
		ckptDir   = flag.String("checkpoint", "", "persist completed shards into this directory and resume from it")
		statsF    = flag.Bool("stats", false, "collect observability stats and print a sweep report (with engine timings) at the end")
		statsOut  = flag.String("stats-out", "", "write the sweep report as JSON to this file ('-' for stdout; implies -stats)")
		ffMode    = flag.String("fastforward", "on", "event-driven cycle skipping, on or off (results are bit-identical either way)")
		warmFork  = flag.Bool("warmup-fork", true, "snapshot warmed cache state once per workload set and fork it across sweep configurations (results are byte-identical either way)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file")
		schedF    = flag.String("scheduler", "", "memory scheduler: "+strings.Join(mem.SchedulerNames(), "|")+" (default "+mem.DefaultScheduler+")")
		policyF   = flag.String("rowpolicy", "", "row-buffer policy: "+strings.Join(mem.RowPolicyNames(), "|")+" (default "+mem.DefaultRowPolicy+")")
		mapperF   = flag.String("mapper", "", "address mapper for raw-address enqueue: "+strings.Join(mem.MapperNames(), "|")+" (default "+mem.DefaultMapper+")")
		stdF      = flag.String("standard", "", "DRAM standard: "+strings.Join(dram.StandardNames(), "|")+" (default "+dram.DefaultStandard+"; fixed-timing standards cannot run CLR sweeps)")
	)
	flag.Parse()
	if *all {
		*table1, *fig12, *fig13, *fig14, *fig15, *area, *coverage, *compare, *retention = true, true, true, true, true, true, true, true, true
	}
	if !*table1 && !*fig12 && !*fig13 && !*fig14 && !*fig15 && !*area && !*coverage && !*compare && !*retention {
		flag.Usage()
		os.Exit(2)
	}

	opts := sim.DefaultOptions()
	opts.TargetInstructions = *instrs
	opts.WarmupRecords = *warmup
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Progress = progressLine
	opts.Mem.Scheduler = *schedF
	opts.Mem.RowPolicy = *policyF
	opts.Mem.Mapper = *mapperF
	if *stdF != "" {
		opts.Standard = *stdF
		opts.Device = dram.Config{} // let the standard prescribe the device
	}
	ff, err := sim.ParseFFMode(*ffMode)
	if err != nil {
		fatal(fmt.Errorf("-fastforward: %w", err))
	}
	opts.FastForward = ff
	opts.DisableWarmupFork = !*warmFork
	spiceOpts := spice.TableOptions{Iterations: *mcIters, Seed: *seed, Workers: *workers}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}()

	// Ctrl-C / SIGTERM cancels the sweeps cleanly; with -checkpoint the next
	// invocation resumes from the completed shards, and the process exits
	// with the conventional 128+signum code (130 for SIGINT).
	ctx, code, stop := cli.SignalContext(context.Background())
	sigCode = code
	defer stop()
	var timer *engine.Timer
	jsonOut := os.Stdout
	if *statsF || *statsOut != "" {
		*statsF = true
		timer = &engine.Timer{}
		opts.Timer = timer
		opts.CollectStats = true
		if *statsOut == "-" {
			// Keep stdout a single valid JSON document for piping: every
			// fmt.Printf below reads os.Stdout at call time, so pointing it
			// at stderr reroutes the whole narrative (the report embeds the
			// full figure payloads, so nothing is lost from the JSON side).
			os.Stdout = os.Stderr
		}
	}
	if *ckptDir != "" {
		store, err := engine.NewStore(*ckptDir)
		if err != nil {
			fatal(err)
		}
		opts.Checkpoint = store
	}

	profiles := workload.All()
	if *nprof > 0 && *nprof < len(profiles) {
		profiles = profiles[:*nprof]
	}

	if *table1 {
		fmt.Println("==================== Table 1 ====================")
		fmt.Println("Paper's published values:")
		fmt.Print(sim.Table1(core.DefaultTable()))
		fmt.Printf("\nRegenerated from the circuit model (%d MC iterations):\n", *mcIters)
		tab, err := spice.BuildTimingTable(spice.Default(), spiceOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(sim.Table1(tab))
		fmt.Println()
	}

	if *area {
		fmt.Println("==================== §6.2 Area overhead ====================")
		bl, cio, total := core.DefaultAreaModel().Overhead()
		fmt.Printf("bitline mode select transistors: %.2f%%\n", bl*100)
		fmt.Printf("column I/O mode select transistors: %.2f%%\n", cio*100)
		fmt.Printf("total chip-area overhead: %.2f%% (paper: at most 3.2%%)\n", total*100)
		fmt.Printf("controller mode-tracking: %d bits per bank of 2^17 rows (1 bit/row)\n\n",
			core.ControllerStorageBits(1<<17, 1))
	}

	if *coverage {
		fmt.Println("==================== §8.2 Page-access concentration ====================")
		fmt.Printf("%-24s %8s %8s %8s\n", "workload", "top25%", "top50%", "top75%")
		for _, name := range []string{"462.libquantum-like", "429.mcf-like", "450.soplex-like", "470.lbm-like"} {
			p, _ := workload.ByName(name)
			fmt.Printf("%-24s %7.1f%% %7.1f%% %7.1f%%\n", name,
				p.CoverageOfTopFraction(0.25)*100,
				p.CoverageOfTopFraction(0.50)*100,
				p.CoverageOfTopFraction(0.75)*100)
		}
		fmt.Println("paper anchors: libquantum 26.4/51.2/75.6%, soplex 85.2% in top 25%")
		fmt.Println()
	}

	var f12 sim.Fig12Result
	var haveF12 bool
	if *fig12 || *fig14 {
		fmt.Printf("Running single-core sweep: %d workloads × %d HP fractions (+baseline), %d instructions each...\n",
			len(profiles), len(sim.HPFractions), *instrs)
		out, err := sim.Run(ctx, sim.Fig12Spec(profiles), sim.WithOptions(opts))
		if err != nil {
			fatal(err)
		}
		f12 = *out.Fig12
		haveF12 = true
		writeCSV(*csvDir, "fig12.csv", func(w *os.File) error { return sim.WriteFig12CSV(w, f12) })
	}

	if *fig12 {
		fmt.Println("==================== Figure 12 (single-core) ====================")
		fmt.Println("Normalized IPC (vs baseline DDR4), HP-row fraction = 0/25/50/75/100%:")
		printRows(f12)
		series := func(label string, v []float64) {
			fmt.Printf("%-22s", label)
			for _, x := range v {
				fmt.Printf(" %6.3f", x)
			}
			fmt.Println()
		}
		fmt.Println("\nAggregates (geometric mean):       0%    25%    50%    75%   100%")
		series("GMEAN IPC", f12.GMeanIPC)
		series("MEM-INTENSIVE IPC", f12.IntensiveIPC)
		series("RANDOM-GMEAN IPC", f12.RandomIPC)
		series("STREAM-GMEAN IPC", f12.StreamIPC)
		series("GMEAN energy", f12.GMeanEnergy)
		series("RANDOM-GMEAN energy", f12.RandomEnergy)
		series("STREAM-GMEAN energy", f12.StreamEnergy)
		fmt.Println("paper: IPC gains 2.4/5.5/7.9/10.3/12.4%; energy savings -3.5/9.2/13.3/16.9/19.7%")
		fmt.Println()
	}

	var f13 sim.Fig13Result
	var haveF13 bool
	if *fig13 || *fig14 {
		fmt.Printf("Running multi-core sweep: %d mixes per group × %d fractions...\n", *mixes, len(sim.HPFractions))
		groups := workload.MixGroups(*seed, *mixes)
		out, err := sim.Run(ctx, sim.Fig13Spec(groups), sim.WithOptions(opts))
		if err != nil {
			fatal(err)
		}
		f13 = *out.Fig13
		haveF13 = true
		writeCSV(*csvDir, "fig13.csv", func(w *os.File) error { return sim.WriteFig13CSV(w, f13) })
	}

	if *fig13 {
		fmt.Println("==================== Figure 13 (four-core) ====================")
		fmt.Println("Normalized weighted speedup / DRAM energy:   0%    25%    50%    75%   100%")
		var gs []string
		for g := range f13.GroupWS {
			gs = append(gs, g)
		}
		sort.Strings(gs)
		for _, g := range gs {
			fmt.Printf("group %-3s WS    ", g)
			for _, v := range f13.GroupWS[g] {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Printf("\ngroup %-3s energy", g)
			for _, v := range f13.GroupEnergy[g] {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Println()
		}
		fmt.Printf("GMEAN WS        ")
		for _, v := range f13.GMeanWS {
			fmt.Printf(" %6.3f", v)
		}
		fmt.Printf("\nGMEAN energy    ")
		for _, v := range f13.GMeanEnergy {
			fmt.Printf(" %6.3f", v)
		}
		fmt.Println("\npaper: WS +11.9% at 25%, +18.6% at 100% (H group +27.5%); energy -21.7% / -29.7%")
		fmt.Println()
	}

	if *fig14 {
		fmt.Println("==================== Figure 14 (DRAM power) ====================")
		fmt.Println("Normalized DRAM power:              0%    25%    50%    75%   100%")
		if haveF12 {
			fmt.Printf("single-core GMEAN")
			for _, v := range f12.GMeanPower {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Println()
		}
		if haveF13 {
			fmt.Printf("multi-core GMEAN ")
			for _, v := range f13.GMeanPower {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Println()
		}
		fmt.Println("paper: single-core -4.3%..-9.7%; multi-core -8.9%..-12.8%")
		fmt.Println()
	}

	if *retention {
		fmt.Println("==================== §5.2 extension: RAIDR x CLR-DRAM refresh ====================")
		clock := 1.0 / 1.2
		prof := core.RAIDRProfile()
		uniform := core.CommandsPerSecond(core.UniformStreams(clock, 0), clock)
		pr := func(name string, rate float64) {
			fmt.Printf("%-34s %10.0f cmd/s  (%.2fx)\n", name, rate, rate/uniform)
		}
		pr("uniform 64 ms (DDR4 baseline)", uniform)
		raidr, err := prof.RefreshStreams(clock, 0, 3, 194)
		if err != nil {
			fatal(err)
		}
		pr("RAIDR bins, all max-capacity", core.CommandsPerSecond(raidr, clock))
		pr("CLR-DRAM 100% HP, uniform 64 ms", core.CommandsPerSecond(core.UniformStreams(clock, 1), clock))
		both, err := prof.RefreshStreams(clock, 1, 3, 194)
		if err != nil {
			fatal(err)
		}
		pr("RAIDR bins + CLR-DRAM 100% HP", core.CommandsPerSecond(both, clock))
		fmt.Println("refresh-command rates; lower is less refresh energy and rank blocking")
		fmt.Println()
	}

	if *compare {
		fmt.Println("==================== §9 Related-design comparison ====================")
		fmt.Println("Circuit-level timings (this repo's comparison topologies):")
		alt, err := spice.BuildAlternativeTimings(spice.Default(), spiceOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %8s %8s %8s %8s\n", "design", "tRCD", "tRAS", "tRP", "tWR")
		pr := func(name string, rcd, ras, rp, wr float64) {
			fmt.Printf("%-22s %7.1f  %7.1f  %7.1f  %7.1f\n", name, rcd, ras, rp, wr)
		}
		pr("DDR4 baseline", alt.Baseline.RCD, alt.Baseline.RAS, alt.Baseline.RP, alt.Baseline.WR)
		pr("CLR-DRAM HP (w/ E.T.)", alt.CLRHP.RCD, alt.CLRHP.RAS, alt.CLRHP.RP, alt.CLRHP.WR)
		pr("Twin-Cell", alt.TwinCell.RCD, alt.TwinCell.RAS, alt.TwinCell.RP, alt.TwinCell.WR)
		pr("MCR-DRAM (2 clones)", alt.MCR.RCD, alt.MCR.RAS, alt.MCR.RP, alt.MCR.WR)
		pr("TL-DRAM near segment", alt.TLNear.RCD, alt.TLNear.RAS, alt.TLNear.RP, alt.TLNear.WR)

		fmt.Println("\nSystem level (memory-intensive subset, normalized to DDR4 baseline):")
		var intensive []workload.Profile
		for _, p := range profiles {
			if p.MemIntensive {
				intensive = append(intensive, p)
			}
		}
		if len(intensive) > 6 {
			intensive = intensive[:6]
		}
		out, err := sim.Run(ctx, sim.ComparisonSpec(intensive, 1.0), sim.WithOptions(opts))
		if err != nil {
			fatal(err)
		}
		rows := out.Comparison
		fmt.Printf("%-24s %8s %8s %10s %8s\n", "design", "IPC", "energy", "capacity", "dynamic")
		for _, r := range rows {
			fmt.Printf("%-24s %8.3f %8.3f %9.0f%% %8v\n", r.Name, r.NormIPC, r.NormEnergy, r.CapacityFactor*100, r.Dynamic)
		}
		fmt.Println("§9: only CLR-DRAM couples SAs and precharge units (tRP/tWR wins) while")
		fmt.Println("keeping the capacity cost dynamic and row-granular.")
		fmt.Println()
	}

	var f15 []sim.Fig15Row
	var f15Fracs []float64
	if *fig15 {
		fmt.Println("==================== Figure 15 (refresh interval) ====================")
		// Use the memory-intensive subset (refresh effects are most visible
		// there and the paper's multi-core runs are dominated by them).
		var intensive []workload.Profile
		for _, p := range profiles {
			if p.MemIntensive {
				intensive = append(intensive, p)
			}
		}
		if len(intensive) > 8 {
			intensive = intensive[:8]
		}
		fracs := []float64{0.25, 0.5, 0.75, 1.0}
		out, err := sim.Run(ctx, sim.Fig15Spec(intensive, fracs), sim.WithOptions(opts))
		if err != nil {
			fatal(err)
		}
		rows := out.Fig15
		f15, f15Fracs = rows, fracs
		writeCSV(*csvDir, "fig15.csv", func(w *os.File) error { return sim.WriteFig15CSV(w, rows, fracs) })
		fmt.Println("setting      HP-frac:   25%     50%     75%    100%")
		for _, r := range rows {
			fmt.Printf("CLR-%-3.0f  perf      ", r.REFWms)
			for _, v := range r.NormPerf {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Printf("\nCLR-%-3.0f  energy    ", r.REFWms)
			for _, v := range r.NormEnergy {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Printf("\nCLR-%-3.0f  refresh-E ", r.REFWms)
			for _, v := range r.NormRefresh {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Println()
		}
		fmt.Println("paper: CLR-64 refresh energy -66.1% (100% HP); CLR-194 -87.1%; perf stays ≥ +17.8%")
	}

	if *statsF {
		rep := sim.SweepReport{
			Schema:             sim.SweepSchema,
			Seed:               *seed,
			TargetInstructions: *instrs,
			Fig15:              f15,
			Fig15Fractions:     f15Fracs,
			Timing:             timer.Summary(),
		}
		if haveF12 {
			rep.Fig12 = &f12
		}
		if haveF13 {
			rep.Fig13 = &f13
		}
		if err := rep.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		if *statsOut != "" {
			writeReportFile(*statsOut, jsonOut, func(w *os.File) error { return rep.WriteJSON(w) })
		}
	}
}

// writeReportFile writes the sweep report to path, "-" meaning the
// process's original stdout (which main may have rerouted for narrative
// output).
func writeReportFile(path string, stdout *os.File, fn func(*os.File) error) {
	if path == "-" {
		if err := fn(stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
	fmt.Printf("(wrote %s)\n", path)
}

func printRows(f sim.Fig12Result) {
	fmt.Printf("%-24s %6s %6s %6s %6s %6s %8s\n", "workload", "0%", "25%", "50%", "75%", "100%", "MPKI")
	for _, r := range f.Rows {
		if !r.MemIntensive {
			continue // the paper's Figure 12 details the high-MPKI set
		}
		fmt.Printf("%-24s", r.Name)
		for _, v := range r.NormIPC {
			fmt.Printf(" %6.3f", v)
		}
		fmt.Printf(" %8.1f\n", r.MPKI)
	}
}

// sigCode reports the exit code of a received signal (set by main once the
// handler is installed); fatal exits with it when err is the cancellation
// that signal caused, and 1 otherwise.
var sigCode func() int

func fatal(err error) {
	cli.Exit("experiments", err, sigCode)
}

// progressLine keeps a live shard counter on stderr; each driver restarts
// it with that sweep's total.
func progressLine(done, total int) {
	fmt.Fprintf(os.Stderr, "\r  %d/%d shards", done, total)
	if done == total {
		fmt.Fprintln(os.Stderr)
	}
}

// writeCSV writes one figure's CSV into dir (no-op when dir is empty).
func writeCSV(dir, name string, fn func(*os.File) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
	fmt.Printf("(wrote %s)\n", filepath.Join(dir, name))
}
